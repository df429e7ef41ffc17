package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/txn"
)

// txn-commit's shape: 16 record-locked files of 64 records of 512 bytes.
// Committer c owns the records whose index is c mod 2, so committers never
// touch the same record.
const (
	txnFiles       = 16
	recordsPerFile = 64
	recordBytes    = 512
)

// txnSpace is txn-commit's files, and the free fragments its disk had
// before any of them existed.
type txnSpace struct {
	fids  []fileservice.FileID
	free0 int
}

func recSlot(f, r int) int { return f*recordsPerFile + r }

// setupTxn builds a facility (default configuration, as core.New gives it)
// and commits version 0 of every record, one transaction per file.
func setupTxn() (*core.Cluster, *txnSpace, error) {
	fac, err := core.New(core.Config{})
	if err != nil {
		return nil, nil, err
	}
	sp := &txnSpace{free0: fac.DiskServer(0).FreeFragments()}
	buf := make([]byte, recordsPerFile*recordBytes)
	for f := 0; f < txnFiles; f++ {
		for r := 0; r < recordsPerFile; r++ {
			stamp(buf[r*recordBytes:(r+1)*recordBytes], uint32(f), uint32(r), 0)
		}
		id, err := fac.Txns.Begin(0)
		var fid fileservice.FileID
		if err == nil {
			fid, err = fac.Txns.Create(id, fit.Attributes{Locking: fit.LockRecord})
		}
		if err == nil {
			_, err = fac.Txns.PWrite(id, fid, 0, buf)
		}
		if err == nil {
			err = fac.Txns.End(id)
		}
		if err != nil {
			fac.Close()
			return nil, nil, fmt.Errorf("populate: %w", err)
		}
		sp.fids = append(sp.fids, fid)
	}
	return fac, sp, nil
}

// commitOnce runs one transaction of committer ci: Begin, Open at record
// level, 1–4 PWrites of its own records, End. Each call crosses the
// txn.Service seam. The written records' versions are acknowledged only
// once End returns.
func commitOnce(fac *core.Cluster, sp *txnSpace, v *Verifier, t *tracer, rng *rand.Rand, ci int, client uint64, buf []byte) (int, error) {
	f := rng.Intn(txnFiles)
	k := 1 + rng.Intn(4)
	recs := rng.Perm(recordsPerFile / clients)[:k]
	var id txn.TxnID
	err := t.txnCall(client, "begin", func() (err error) {
		id, err = fac.Txns.Begin(ci + 1)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("begin: %w", err)
	}
	if err := t.txnCall(client, "open", func() error { return fac.Txns.Open(id, sp.fids[f], fit.LockRecord) }); err != nil {
		_ = fac.Txns.Abort(id)
		return 0, fmt.Errorf("open: %w", err)
	}
	vers := make([]uint64, k)
	for i, r := range recs {
		r = r*clients + ci
		recs[i] = r
		vers[i] = v.beginWrite(recSlot(f, r))
		stamp(buf, uint32(f), uint32(r), vers[i])
		if err := t.txnCall(client, "write", func() error {
			_, err := fac.Txns.PWrite(id, sp.fids[f], int64(r)*recordBytes, buf)
			return err
		}); err != nil {
			_ = fac.Txns.Abort(id)
			return 0, fmt.Errorf("pwrite: %w", err)
		}
	}
	err = t.txnCall(client, "end", func() error { return fac.Txns.End(id) })
	for i, r := range recs {
		v.endWrite(recSlot(f, r), vers[i], err == nil)
	}
	if err != nil {
		return 0, fmt.Errorf("end: %w", err)
	}
	return k * recordBytes, nil
}

// runTxnCommit runs txn-commit: two committers in a closed loop on the
// in-process facility, then a crash and recovery, after which every record
// must hold its last committed version.
func runTxnCommit(o opts) (*result, error) {
	clock := wallClock()
	ids := clientIDs(clients)
	t := newTracer(clock, ids)
	res := &result{}
	pl := newPhaseLog(o.workload)
	var sp *txnSpace
	fac, setup, err := buildTimes(func() (fac *core.Cluster, err error) {
		fac, sp, err = setupTxn()
		return fac, err
	}, (*core.Cluster).Close)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	defer fac.Close()
	pl.done("setup")
	v := newVerifier(txnFiles*recordsPerFile, 0, clock)
	res.verify = v
	m0 := memStats()
	before := snapFac(fac)
	logs, tallies := timedPhase(t, o.trace, o.seconds, func(ci int, l *opLog, ta *tally, start, deadline time.Duration) {
		rng := rand.New(rand.NewSource(o.seed*1000 + int64(ci)))
		buf := make([]byte, recordBytes)
		for t.clock() < deadline {
			traced, t0 := t.opBegin(ids[ci])
			n, err := commitOnce(fac, sp, v, t, rng, ci, ids[ci], buf)
			t1 := t.clock()
			t.opEnd(traced, ids[ci], "commit", t0)
			ta.op(err)
			if err == nil {
				ta.userBytes += int64(n)
				l.done(opCommit, t1-start, t1-t0)
			}
		}
	})
	after := snapFac(fac)
	m1 := memStats()
	res.timed = logs
	res.heapMB = float64(m1.HeapInuse) / (1 << 20)
	res.merge(tallies)
	pl.done("timed phase")

	// Crash: volatile state and unsynced log records are lost; recovery
	// redoes committed transactions. Every record must then read back at
	// its last committed version.
	if err := fac.Crash(); err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	r0 := time.Now()
	redone, err := fac.Recover()
	recoverMS := float64(time.Since(r0)) / 1e6
	var fin tally
	fin.op(err)
	for f := 0; f < txnFiles; f++ {
		for r := 0; r < recordsPerFile; r++ {
			fin.op(checkRecord(fac, sp, v, f, r))
		}
	}
	res.final = fin
	pl.done("crash, recovery and final check")
	if o.trace {
		ls := newLayerSet()
		var ops, userBytes int64
		for _, x := range tallies {
			ops += x.attempted
			userBytes += x.userBytes
		}
		ls.facLayers(before, after, ops, userBytes)
		ls.runtimeLayers(m0, m1, ops, logs)
		ls.txnLayers(t)
		ls.v["txn.recover_redone"] = float64(redone)
		ls.v["txn.recover_ms"] = recoverMS
		ls.v["space.bytes_per_user_byte"] = spaceRatio(fac, sp.free0, txnFiles*recordsPerFile*recordBytes)
		ls.none("txn-commit runs in process: no network, no client cache",
			"rpc.requests_per_op", "rpc.retries", "rpc.duplicates", "rpc.wire_us_p50", "rpc.wire_us_p99",
			"cluster.repl_wait_us_p50", "cluster.repl_wait_us_p99", "repl.records_per_batch", "repl.apply_us_p50",
			"cluster.router.redirects", "cluster.router.rebinds",
			"ccache.hit_ratio", "ccache.recalls_per_kop", "ccache.flush_blocks_per_kop", "ccache.remote_us_p50",
			"ccache.lease_rpc_us_p50", "ccache.lease.broken", "ccache.lease.expired", "ccache.server_self_us_p50",
			"trace.unattached_spans")
		for _, m := range rpcfsMethods {
			ls.none("txn-commit runs in process: no rpcfs server", "rpcfs."+m+".us_p50", "rpcfs."+m+".count")
		}
		res.layers, res.notMeasured = ls.v, ls.why
	}
	return res, nil
}

// checkRecord reads record r of file f after recovery and checks it holds
// its last committed version.
func checkRecord(fac *core.Cluster, sp *txnSpace, v *Verifier, f, r int) error {
	data, err := fac.Files.ReadAt(sp.fids[f], int64(r)*recordBytes, recordBytes)
	if err != nil {
		v.lost.Add(1)
		return fmt.Errorf("%s: record %d/%d unreadable after recovery: %w", kindLost, f, r, err)
	}
	return v.checkFinal(recSlot(f, r), uint32(f), uint32(r), recordBytes, data)
}

// txnLayers fills the txn.Service seam timings of a traced txn-commit run.
func (ls *layerSet) txnLayers(t *tracer) {
	by := map[string][]time.Duration{}
	for i := range t.spans {
		if s := &t.spans[i]; s.seam == seamTxn {
			by[s.name] = append(by[s.name], s.dur())
		}
	}
	ls.v["txn.begin_us_p50"] = quantileUS(by["begin"], 0.50)
	ls.v["txn.write_us_p50"] = quantileUS(by["write"], 0.50)
	ls.v["txn.end_us_p50"] = quantileUS(by["end"], 0.50)
	ls.v["txn.end_us_p99"] = quantileUS(by["end"], 0.99)
}
