package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/fit"
)

// small-files' shape: each client keeps about 200 live files of 0.5–6.5 KiB
// spread over 16 directories of its own.
const (
	sfTarget  = 200
	sfDirs    = 16
	sfMinSize = 512
	sfMaxSize = 6656
)

// sfFile is one live small file. Its content is version 1 of (client, seq).
type sfFile struct {
	seq  uint32
	path string
	size int
}

// sfClient is one client's population.
type sfClient struct {
	ci   int
	rt   *cluster.Router
	rng  *rand.Rand
	next uint32
	live []sfFile
	buf  []byte
}

func (c *sfClient) create() (sfFile, time.Duration, error) {
	f := sfFile{seq: c.next, size: sfMinSize + c.rng.Intn(sfMaxSize-sfMinSize+1)}
	c.next++
	f.path = fmt.Sprintf("/sf/c%d/d%02d/f%06d", c.ci, c.rng.Intn(sfDirs), f.seq)
	id, err := c.rt.CreatePath(fit.Attributes{}, f.path)
	if err != nil {
		return f, 0, fmt.Errorf("create %s: %w", f.path, err)
	}
	data := c.buf[:f.size]
	stamp(data, uint32(c.ci), f.seq, 1)
	w0 := time.Now()
	if _, err := c.rt.WriteAt(id, 0, data); err != nil {
		return f, 0, fmt.Errorf("write %s: %w", f.path, err)
	}
	return f, time.Since(w0), nil
}

// read resolves f and reads it whole; final selects the post-flush check.
func (c *sfClient) read(v *Verifier, f sfFile, final bool) error {
	e, err := c.rt.ResolvePath(f.path)
	if err != nil {
		if final {
			v.lost.Add(1)
			return fmt.Errorf("%s: %s does not resolve after flush: %w", kindLost, f.path, err)
		}
		v.countStale()
		return fmt.Errorf("%s: created %s does not resolve: %w", kindStale, f.path, err)
	}
	data, err := c.rt.ReadAt(fileservice.FileID(e.SystemName), 0, f.size)
	if err != nil {
		if final {
			v.lost.Add(1)
		}
		return fmt.Errorf("read %s: %w", f.path, err)
	}
	return v.checkExact(uint32(c.ci), f.seq, f.size, 1, data, final)
}

func (c *sfClient) delete(f sfFile) error {
	e, err := c.rt.ResolvePath(f.path)
	if err != nil {
		return fmt.Errorf("resolve %s for delete: %w", f.path, err)
	}
	if err := c.rt.Delete(fileservice.FileID(e.SystemName)); err != nil {
		return fmt.Errorf("delete %s: %w", f.path, err)
	}
	return nil
}

// pick removes (when remove is set) and returns a random live file.
func (c *sfClient) pick(remove bool) sfFile {
	i := c.rng.Intn(len(c.live))
	f := c.live[i]
	if remove {
		c.live[i] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
	return f
}

// setupSmallFiles builds the stack and each client's initial population.
func setupSmallFiles(seed int64, t *tracer) (*stack, []*sfClient, error) {
	st, err := buildStack(clients, false, t)
	if err != nil {
		return nil, nil, err
	}
	cs := make([]*sfClient, clients)
	for ci := range cs {
		c := &sfClient{ci: ci, rt: st.clients[ci].rt, rng: rand.New(rand.NewSource(seed*1000 + int64(ci))), buf: make([]byte, sfMaxSize)}
		for len(c.live) < sfTarget {
			f, _, err := c.create()
			if err != nil {
				st.close()
				return nil, nil, fmt.Errorf("populate: %w", err)
			}
			c.live = append(c.live, f)
		}
		cs[ci] = c
	}
	return st, cs, nil
}

// runSmallFiles runs small-files: per client, a third creates, a third
// whole-file reads and a third deletes over its own population of 200.
func runSmallFiles(o opts) (*result, error) {
	clock := wallClock()
	ids := clientIDs(clients)
	t := newTracer(clock, ids)
	var tw *tracer
	if o.trace {
		tw = t
	}
	res := &result{}
	pl := newPhaseLog(o.workload)
	var cs []*sfClient
	st, setup, err := buildTimes(func() (st *stack, err error) {
		st, cs, err = setupSmallFiles(o.seed, tw)
		return st, err
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	defer st.close()
	pl.done("setup")
	v := newVerifier(0, 0, clock)
	res.verify = v
	m0 := memStats()
	before := snapStack(st)
	logs, tallies := timedPhase(t, o.trace, o.seconds, func(ci int, l *opLog, ta *tally, start, deadline time.Duration) {
		c := cs[ci]
		for t.clock() < deadline {
			traced, t0 := t.opBegin(ids[ci])
			// A third reads; the rest create below the target population
			// and delete at or above it, so the population holds at 200
			// (a free create/delete walk wanders ±100 within seconds, and
			// throughput with it).
			kind := opRead
			if c.rng.Intn(3) > 0 {
				kind = opDelete
				if len(c.live) < sfTarget {
					kind = opCreate
				}
			}
			var err error
			var wlat time.Duration
			switch kind {
			case opRead:
				err = c.read(v, c.pick(false), false)
			case opCreate:
				var f sfFile
				f, wlat, err = c.create()
				if err == nil {
					c.live = append(c.live, f)
					ta.userBytes += int64(f.size)
				}
			case opDelete:
				err = c.delete(c.pick(true))
			}
			t1 := t.clock()
			t.opEnd(traced, ids[ci], kindNames[kind], t0)
			ta.op(err)
			if err == nil {
				l.done(kind, t1-start, t1-t0)
				if kind == opCreate {
					l.sample(opWrite, wlat)
				}
			}
		}
	})
	after := snapStack(st)
	m1 := memStats()
	res.timed = logs
	res.heapMB = float64(m1.HeapInuse) / (1 << 20)
	res.merge(tallies)
	pl.done("timed phase")

	var fin tally
	fin.op(st.nodes[0].fac.Flush())
	var liveBytes int64
	for _, c := range cs {
		for _, f := range c.live {
			fin.op(c.read(v, f, true))
			liveBytes += int64(f.size)
		}
	}
	res.final = fin
	pl.done("final check")
	if o.trace {
		res.layers, res.notMeasured = stackLayers(before, after, m0, m1, logs, tallies, t, false)
		res.layers["space.bytes_per_user_byte"] = spaceRatio(st.nodes[0].fac, st.nodes[0].free0, liveBytes)
	}
	return res, nil
}
