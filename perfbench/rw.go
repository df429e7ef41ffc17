package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ccache"
	"repro/internal/fileservice"
	"repro/internal/fit"
)

// slotBytes is the unit every read and write of the slot workloads moves.
const slotBytes = 4096

// blockFS is what the slot workloads need from a client: the router
// (uncached) or the coherent cache in front of it.
type blockFS interface {
	ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAt(id fileservice.FileID, off int64, data []byte) (int, error)
}

// slotSpace is a set of equal files cut into 4 KiB slots. Slot s lives in
// file s/per at offset (s%per)·4 KiB; its one writer is client s%2.
type slotSpace struct {
	ids []fileservice.FileID
	per int
}

func (sp *slotSpace) n() int { return len(sp.ids) * sp.per }

func (sp *slotSpace) where(s int) (fileservice.FileID, uint32, uint32, int64) {
	f, k := s/sp.per, s%sp.per
	return sp.ids[f], uint32(f), uint32(k), int64(k) * slotBytes
}

// read reads slot s through fs and checks it against the model.
func (sp *slotSpace) read(fs blockFS, v *Verifier, s int) error {
	id, f, k, off := sp.where(s)
	start := v.now()
	data, err := fs.ReadAt(id, off, slotBytes)
	if err != nil {
		return fmt.Errorf("read slot %d/%d: %w", f, k, err)
	}
	return v.checkRead(s, f, k, slotBytes, data, start)
}

// write writes the next version of slot s through fs; buf is scratch.
func (sp *slotSpace) write(fs blockFS, v *Verifier, s int, buf []byte) error {
	id, f, k, off := sp.where(s)
	ver := v.beginWrite(s)
	stamp(buf, f, k, ver)
	_, err := fs.WriteAt(id, off, buf)
	v.endWrite(s, ver, err == nil)
	if err != nil {
		return fmt.Errorf("write slot %d/%d: %w", f, k, err)
	}
	return nil
}

// final reads slot s after quiesce and flush; it must hold its last
// acknowledged version.
func (sp *slotSpace) final(fs blockFS, v *Verifier, s int) error {
	id, f, k, off := sp.where(s)
	data, err := fs.ReadAt(id, off, slotBytes)
	if err != nil {
		v.lost.Add(1)
		return fmt.Errorf("%s: slot %d/%d unreadable after flush: %w", kindLost, f, k, err)
	}
	return v.checkFinal(s, f, k, slotBytes, data)
}

// rwShape is one slot workload's parameters.
type rwShape struct {
	files, fileBytes int
	readFrac         float64
	zipf             bool
	cached           bool
}

var (
	remoteRW  = rwShape{files: 64, fileBytes: 256 << 10, readFrac: 0.70}
	cachedHot = rwShape{files: 16, fileBytes: 64 << 10, readFrac: 0.95, zipf: true, cached: true}
)

func runRemoteRW(o opts) (*result, error)  { return runSlots(o, remoteRW) }
func runCachedHot(o opts) (*result, error) { return runSlots(o, cachedHot) }

// setupSlots builds the stack (its seams wrapped by t, when set) and
// writes version 0 of every slot, through the routers (never the caches),
// one file per call.
func setupSlots(shape rwShape, t *tracer) (*stack, *slotSpace, error) {
	st, err := buildStack(clients, shape.cached, t)
	if err != nil {
		return nil, nil, err
	}
	sp := &slotSpace{per: shape.fileBytes / slotBytes}
	buf := make([]byte, shape.fileBytes)
	for f := 0; f < shape.files; f++ {
		rt := st.clients[f%clients].rt
		id, err := rt.CreatePath(fit.Attributes{}, fmt.Sprintf("/slots/f%03d", f))
		if err != nil {
			st.close()
			return nil, nil, fmt.Errorf("populate: %w", err)
		}
		for k := 0; k < sp.per; k++ {
			stamp(buf[k*slotBytes:(k+1)*slotBytes], uint32(f), uint32(k), 0)
		}
		if _, err := rt.WriteAt(id, 0, buf); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("populate: %w", err)
		}
		sp.ids = append(sp.ids, id)
	}
	return st, sp, nil
}

// runSlots runs remote-rw or cached-hot: two closed-loop clients, each
// reading any slot and writing only its own, every read checked.
func runSlots(o opts, shape rwShape) (*result, error) {
	clock := wallClock()
	t := newTracer(clock, clientIDs(clients))
	var tw *tracer
	if o.trace {
		tw = t
	}
	res := &result{}
	pl := newPhaseLog(o.workload)
	var sp *slotSpace
	st, setup, err := buildTimes(func() (st *stack, err error) {
		st, sp, err = setupSlots(shape, tw)
		return st, err
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	defer st.close()
	pl.done("setup")
	lag := time.Duration(0)
	if shape.cached {
		lag = ccache.DefaultTTL
	}
	v := newVerifier(sp.n(), lag, clock)
	res.verify = v
	fss := make([]blockFS, clients)
	for i, c := range st.clients {
		fss[i] = c.rt
		if c.cc != nil {
			fss[i] = c.cc
		}
	}
	// Slot order for the Zipf draw: rank r maps to a seeded permutation,
	// so the hot slots are spread over the files.
	perm := rand.New(rand.NewSource(o.seed)).Perm(sp.n())
	runtime0 := memStats()
	before := snapStack(st)
	logs, tallies := timedPhase(t, o.trace, o.seconds, func(ci int, l *opLog, ta *tally, start, deadline time.Duration) {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(ci)))
		var zipf *rand.Zipf
		if shape.zipf {
			zipf = rand.NewZipf(rng, 1.1, 1, uint64(sp.n()-1))
		}
		pick := func() int {
			if zipf != nil {
				return perm[zipf.Uint64()]
			}
			return rng.Intn(sp.n())
		}
		id := st.clients[ci].id
		fs := fss[ci]
		buf := make([]byte, slotBytes)
		for t.clock() < deadline {
			traced, t0 := t.opBegin(id)
			var err error
			kind := opRead
			if rng.Float64() < shape.readFrac {
				err = sp.read(fs, v, pick())
			} else {
				kind = opWrite
				s := pick()
				if s%clients != ci {
					s ^= 1 // the neighbouring slot is this client's
				}
				err = sp.write(fs, v, s, buf)
				ta.userBytes += slotBytes
			}
			t1 := t.clock()
			t.opEnd(traced, id, kindNames[kind], t0)
			ta.op(err)
			if err == nil {
				l.done(kind, t1-start, t1-t0)
			}
		}
	})
	after := snapStack(st)
	runtime1 := memStats()
	res.timed = logs
	res.heapMB = float64(runtime1.HeapInuse) / (1 << 20)
	res.merge(tallies)
	pl.done("timed phase")

	// Quiesce, flush, and check every slot against its last acknowledged
	// version.
	var fin tally
	for _, c := range st.clients {
		if c.cc != nil {
			fin.op(c.cc.Flush())
		}
	}
	fin.op(st.nodes[0].fac.Flush())
	for s := 0; s < sp.n(); s++ {
		fin.op(sp.final(st.clients[0].rt, v, s))
	}
	res.final = fin
	pl.done("final check")
	if o.trace {
		res.layers, res.notMeasured = stackLayers(before, after, runtime0, runtime1, logs, tallies, t, shape.cached)
		res.layers["space.bytes_per_user_byte"] = spaceRatio(st.nodes[0].fac, st.nodes[0].free0, int64(shape.files*shape.fileBytes))
	}
	return res, nil
}
