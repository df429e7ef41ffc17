package main

import (
	"runtime"
	"time"

	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/rpcfs"
)

// layerMetric is one per-layer metric the traced run prints.
type layerMetric struct{ name, unit string }

// rpcfsMethods are the methods given an rpcfs.<method> pair. The lease
// methods stop at the lease manager, so theirs are timed at its seam.
var rpcfsMethods = []string{
	rpcfs.MReadAt, rpcfs.MWriteAt, rpcfs.MCreate, rpcfs.MDelete, rpcfs.MSize,
	rpcfs.MResolve, rpcfs.MRegister, rpcfs.MUnregisterSys,
	ccache.MLeaseAcquire, ccache.MLeaseRelease, ccache.MLeaseAck,
}

// perLayer lists every per-layer metric, in BENCHMARK.json's order.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"rpc.requests_per_op", "1/op"},
		{"rpc.retries", "count"},
		{"rpc.duplicates", "count"},
		{"rpc.wire_us_p50", "us"},
		{"rpc.wire_us_p99", "us"},
		{"cluster.repl_wait_us_p50", "us"},
		{"cluster.repl_wait_us_p99", "us"},
		{"repl.records_per_batch", "1/batch"},
		{"repl.apply_us_p50", "us"},
		{"cluster.router.redirects", "count"},
		{"cluster.router.rebinds", "count"},
		{"ccache.hit_ratio", "ratio"},
		{"ccache.recalls_per_kop", "1/kop"},
		{"ccache.flush_blocks_per_kop", "1/kop"},
		{"ccache.remote_us_p50", "us"},
		{"ccache.lease_rpc_us_p50", "us"},
		{"ccache.lease.broken", "count"},
		{"ccache.lease.expired", "count"},
		{"ccache.server_self_us_p50", "us"},
		{"verify.stale_within_ttl", "count"},
	}
	for _, m := range rpcfsMethods {
		ms = append(ms, layerMetric{"rpcfs." + m + ".us_p50", "us"}, layerMetric{"rpcfs." + m + ".count", "count"})
	}
	return append(ms,
		layerMetric{"fs.cache.hit_ratio", "ratio"},
		layerMetric{"disk.track_cache.hit_ratio", "ratio"},
		layerMetric{"space.bytes_per_user_byte", "ratio"},
		layerMetric{"disk.references_per_op", "1/op"},
		layerMetric{"disk.seeks_per_op", "1/op"},
		layerMetric{"disk.bytes_written_per_user_byte", "ratio"},
		layerMetric{"device.virtual_ms_per_kop", "ms/kop"},
		layerMetric{"txn.begin_us_p50", "us"},
		layerMetric{"txn.write_us_p50", "us"},
		layerMetric{"txn.end_us_p50", "us"},
		layerMetric{"txn.end_us_p99", "us"},
		layerMetric{"txn.commits_per_sync", "1/sync"},
		layerMetric{"stable.writes_per_commit", "1/commit"},
		layerMetric{"lock.waits_per_commit", "1/commit"},
		layerMetric{"txn.aborted", "count"},
		layerMetric{"txn.timed_out", "count"},
		layerMetric{"txn.recover_redone", "count"},
		layerMetric{"txn.recover_ms", "ms"},
		layerMetric{"go.alloc_bytes_per_op", "B/op"},
		layerMetric{"go.gc_cycles_per_kop", "1/kop"},
		layerMetric{"trace.overhead_frac", "ratio"},
		layerMetric{"trace.unattached_spans", "count"},
		layerMetric{"verify.stale_reads", "count"},
		layerMetric{"verify.torn_reads", "count"},
		layerMetric{"verify.lost_writes", "count"},
	)
}()

// facSnap is one facility's counters at an instant.
type facSnap struct {
	met      map[string]int64
	gauges   map[string]int64
	batchN   int64
	batchSum int64
	makespan time.Duration
}

func snapFac(fac *core.Cluster) facSnap {
	h := fac.Obs().ValueHist(replication.MetricShipBatchRecords)
	return facSnap{
		met:      fac.Metrics.Snapshot(),
		gauges:   fac.Obs().Gauges(),
		batchN:   h.Count(),
		batchSum: int64(h.Sum()),
		makespan: fac.Makespan(),
	}
}

// stackSnap is a network stack's counters: the primary's, and the
// clients' summed.
type stackSnap struct {
	prim facSnap
	cli  map[string]int64
}

func snapStack(st *stack) stackSnap {
	s := stackSnap{prim: snapFac(st.nodes[0].fac), cli: map[string]int64{}}
	for _, c := range st.clients {
		for k, v := range c.rec.Gauges() {
			s.cli[k] += v
		}
		for k, v := range c.met.Snapshot() {
			s.cli[k] += v
		}
	}
	return s
}

// layerSet accumulates one run's per-layer values and the reasons some
// read 0.
type layerSet struct {
	v   map[string]float64
	why map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{v: map[string]float64{}, why: map[string]string{}}
}

// none marks metrics this workload cannot exercise, with the reason.
func (ls *layerSet) none(why string, names ...string) {
	for _, n := range names {
		ls.v[n] = 0
		ls.why[n] = why
	}
}

// spaceRatio is the bytes allocated on fac's first disk since it had free0
// free fragments, per live user byte: data fragments plus FIT and naming
// overhead over the data the workload keeps.
func spaceRatio(fac *core.Cluster, free0 int, liveBytes int64) float64 {
	used := free0 - fac.DiskServer(0).FreeFragments()
	return ratio(float64(used)*device.FragmentSize, float64(liveBytes))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// facLayers fills the metrics read from one facility's counters over the
// timed phase: file-service and disk caches, the device, txn and stable.
func (ls *layerSet) facLayers(a, b facSnap, ops, userBytes int64) {
	d := func(k string) float64 { return float64(b.met[k] - a.met[k]) }
	ls.v["fs.cache.hit_ratio"] = ratio(d(metrics.ServerCacheHit), d(metrics.ServerCacheHit)+d(metrics.ServerCacheMiss))
	ls.v["disk.track_cache.hit_ratio"] = ratio(d(metrics.TrackCacheHit), d(metrics.TrackCacheHit)+d(metrics.TrackCacheMiss))
	ls.v["disk.references_per_op"] = ratio(d(metrics.DiskReferences), float64(ops))
	ls.v["disk.seeks_per_op"] = ratio(d(metrics.DiskSeeks), float64(ops))
	ls.v["disk.bytes_written_per_user_byte"] = ratio(d(metrics.DiskBytesWrite), float64(userBytes))
	ls.v["device.virtual_ms_per_kop"] = ratio(float64(b.makespan-a.makespan)/1e6, float64(ops)/1000)
	commits := d(metrics.TxnCommitted)
	ls.v["txn.commits_per_sync"] = ratio(commits, d(metrics.WalSyncs))
	ls.v["stable.writes_per_commit"] = ratio(d(metrics.StableWrites), commits)
	ls.v["lock.waits_per_commit"] = ratio(d(metrics.LockWaits), commits)
	ls.v["txn.aborted"] = d(metrics.TxnAborted)
	ls.v["txn.timed_out"] = d(metrics.TxnTimedOut)
	ls.v["rpc.requests_per_op"] = ratio(d(metrics.RPCRequests), float64(ops))
	ls.v["rpc.duplicates"] = d(metrics.RPCDuplicates)
	ls.v["repl.records_per_batch"] = ratio(float64(b.batchSum-a.batchSum), float64(b.batchN-a.batchN))
	ls.v["ccache.lease.broken"] = float64(b.gauges[ccache.MetricLeaseBroken] - a.gauges[ccache.MetricLeaseBroken])
	ls.v["ccache.lease.expired"] = float64(b.gauges[ccache.MetricLeaseExpired] - a.gauges[ccache.MetricLeaseExpired])
}

// runtimeLayers fills the Go runtime metrics over the timed phase.
func (ls *layerSet) runtimeLayers(a, b runtime.MemStats, ops int64, logs []*opLog) {
	ls.v["go.alloc_bytes_per_op"] = ratio(float64(b.TotalAlloc-a.TotalAlloc), float64(ops))
	// Two forced collections bracket the phase (memStats); they are not
	// the workload's.
	ls.v["go.gc_cycles_per_kop"] = ratio(float64(b.NumGC-a.NumGC-1), float64(ops)/1000)
	ls.v["trace.overhead_frac"] = traceOverhead(logs)
}

// quantileUS is the exact q-quantile of ds in microseconds (0 if empty).
func quantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]uint32, len(ds))
	for i, d := range ds {
		if d < 0 {
			d = 0
		}
		xs[i] = uint32(d)
	}
	return float64(quantile(xs, q)) / 1e3
}

// traceLayers fills the span-derived metrics of a network stack's run.
func (ls *layerSet) traceLayers(t *tracer, ids []uint64) {
	clientSet := map[uint64]bool{}
	for _, id := range ids {
		clientSet[id] = true
	}
	tr := analyse(t.spans, clientSet)
	ls.v["trace.unattached_spans"] = float64(tr.unattached)
	var wire, replWait, apply, ccRemote, ccLease, ccSelf []time.Duration
	perMethod := map[string][]time.Duration{}
	for i := range tr.spans {
		s := &tr.spans[i]
		switch s.seam {
		case seamOp, seamCCInner, seamCCLease:
			// The wire segment of a call that reached a server: its time
			// not covered by the server handlers it caused.
			roots := 0
			for _, k := range tr.children[i] {
				if tr.spans[k].seam == seamHandler {
					roots++
				}
			}
			if roots > 0 {
				wire = append(wire, s.dur()-coveredBy(tr, i, seamHandler))
			}
			if s.seam == seamCCInner {
				ccRemote = append(ccRemote, s.dur())
			} else if s.seam == seamCCLease {
				ccLease = append(ccLease, s.dur())
			}
		case seamHandler:
			switch {
			case s.node == 1 && s.name == cluster.MReplApply:
				apply = append(apply, s.dur())
			case s.node == 0 && mutation(s.name):
				replWait = append(replWait, tr.self[i])
			}
		case seamCluster:
			if s.node == 0 {
				ccSelf = append(ccSelf, tr.self[i])
				if s.name == ccache.MLeaseAcquire || s.name == ccache.MLeaseRelease || s.name == ccache.MLeaseAck {
					perMethod[s.name] = append(perMethod[s.name], s.dur())
				}
			}
		case seamRPCFS:
			if s.node == 0 {
				perMethod[s.name] = append(perMethod[s.name], s.dur())
			}
		}
	}
	ls.v["rpc.wire_us_p50"] = quantileUS(wire, 0.50)
	ls.v["rpc.wire_us_p99"] = quantileUS(wire, 0.99)
	ls.v["cluster.repl_wait_us_p50"] = quantileUS(replWait, 0.50)
	ls.v["cluster.repl_wait_us_p99"] = quantileUS(replWait, 0.99)
	ls.v["repl.apply_us_p50"] = quantileUS(apply, 0.50)
	ls.v["ccache.remote_us_p50"] = quantileUS(ccRemote, 0.50)
	ls.v["ccache.lease_rpc_us_p50"] = quantileUS(ccLease, 0.50)
	ls.v["ccache.server_self_us_p50"] = quantileUS(ccSelf, 0.50)
	for _, m := range rpcfsMethods {
		ls.v["rpcfs."+m+".us_p50"] = quantileUS(perMethod[m], 0.50)
		ls.v["rpcfs."+m+".count"] = float64(len(perMethod[m]))
	}
}

// coveredBy is how much of span i its children at seam s cover.
func coveredBy(tr *tree, i int, s seam) time.Duration {
	var kids []int
	for _, k := range tr.children[i] {
		if tr.spans[k].seam == s {
			kids = append(kids, k)
		}
	}
	return covered(&tr.spans[i], tr.spans, kids)
}

// mutation reports whether a client method changes shard state — the
// requests a replicated primary ships and waits on. It is a copy of
// cluster.mutatesState, which is not exported; keep the two lists equal,
// or cluster.repl_wait_us_* filters by a stale set.
func mutation(method string) bool {
	switch method {
	case rpcfs.MCreate, rpcfs.MOpen, rpcfs.MClose, rpcfs.MDelete,
		rpcfs.MWriteAt, rpcfs.MTruncate, rpcfs.MRegister, rpcfs.MUnregisterSys,
		ccache.MLeaseAcquire:
		return true
	}
	return false
}

// stackLayers computes every per-layer metric of a network-stack run.
func stackLayers(a, b stackSnap, m0, m1 runtime.MemStats, logs []*opLog, ts []tally, t *tracer, cached bool) (map[string]float64, map[string]string) {
	var ops, userBytes int64
	for _, x := range ts {
		ops += x.attempted
		userBytes += x.userBytes
	}
	ls := newLayerSet()
	ls.facLayers(a.prim, b.prim, ops, userBytes)
	ls.runtimeLayers(m0, m1, ops, logs)
	ls.traceLayers(t, clientIDs(clients))
	cd := func(k string) float64 { return float64(b.cli[k] - a.cli[k]) }
	ls.v["rpc.retries"] = cd(metrics.RPCRetries)
	ls.v["cluster.router.redirects"] = cd(cluster.MetricRouterRedirects)
	ls.v["cluster.router.rebinds"] = cd(cluster.MetricRouterRebinds)
	ls.v["ccache.hit_ratio"] = ratio(cd(ccache.MetricHits), cd(ccache.MetricHits)+cd(ccache.MetricMisses))
	ls.v["ccache.recalls_per_kop"] = ratio(cd(ccache.MetricRecalls), float64(ops)/1000)
	ls.v["ccache.flush_blocks_per_kop"] = ratio(cd(ccache.MetricFlushBlocks), float64(ops)/1000)
	if !cached {
		ls.none("no client cache on this workload",
			"ccache.hit_ratio", "ccache.recalls_per_kop", "ccache.flush_blocks_per_kop",
			"ccache.remote_us_p50", "ccache.lease_rpc_us_p50")
	}
	ls.none("no transactions in this workload's mix",
		"txn.begin_us_p50", "txn.write_us_p50", "txn.end_us_p50", "txn.end_us_p99",
		"txn.commits_per_sync", "stable.writes_per_commit", "lock.waits_per_commit")
	ls.none("no crash and recovery on this workload", "txn.recover_redone", "txn.recover_ms")
	return ls.v, ls.why
}
