// Command perfbench is the repository's benchmark: closed-loop workloads
// against a replicated rhodosd shard (or, for txn-commit, the in-process
// facility), with every byte read checked against the workload's
// consistency model.
//
// Usage:
//
//	perfbench --workload remote-rw --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end set
// (measured untraced); with --trace 1 they are the per-layer set, from a
// run whose alternate windows record spans at the program's seams. The
// line before it carries the per-kind latencies with their sample counts
// and the failure counts by kind. See README.md for every metric,
// workload and seam.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// opts are one run's parameters.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workload is one benchmark workload. run builds its stack setups times
// (keeping the last), drives the timed phase, and checks the outcome.
type workload struct {
	name string
	run  func(o opts) (*result, error)
}

var workloads = []workload{
	{"remote-rw", runRemoteRW},
	{"cached-hot", runCachedHot},
	{"txn-commit", runTxnCommit},
	{"small-files", runSmallFiles},
}

// setups is how many times each run builds its stack; setup_s is the
// median, so a one-off stall in one build does not move it.
const setups = 5

// clients is the closed-loop client count: one op outstanding per client.
const clients = 2

func main() {
	os.Exit(run())
}

func run() int {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "timed-phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 3 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 3")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := res.print(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// opKind classifies a latency sample. opAny holds every op of the mix
// (whatever its kind), in the order the client completed them.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opCreate
	opDelete
	opCommit
	opAny
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "create", "delete", "commit", "op"}

// window is the span of one throughput/quantile window. The traced run
// alternates untraced and traced windows.
const window = time.Second

// opLog is one client's samples: latencies in nanoseconds (uint32 holds
// up to 4.29 s) per kind, and completed ops per window.
type opLog struct {
	lat [nKinds][]uint32
	ops []int
}

func newOpLog(windows int) *opLog { return &opLog{ops: make([]int, windows)} }

// sample records one latency of kind k.
func (l *opLog) sample(k opKind, lat time.Duration) {
	if lat > time.Duration(^uint32(0)) {
		lat = time.Duration(^uint32(0))
	}
	l.lat[k] = append(l.lat[k], uint32(lat))
}

// done counts one completed op of kind k that ended at end (relative to
// the phase start) and took lat.
func (l *opLog) done(k opKind, end, lat time.Duration) {
	l.sample(k, lat)
	l.sample(opAny, lat)
	l.ops[l.win(end)]++
}

func (l *opLog) win(end time.Duration) int {
	w := int(end / window)
	if w < 0 {
		w = 0
	}
	if w >= len(l.ops) {
		w = len(l.ops) - 1
	}
	return w
}

// result is what one run produced.
type result struct {
	attempted, failed int64    // timed-phase ops
	errs              []string // first few timed-phase failures, for the log
	final             tally    // the end check: flushes, rereads, recovery
	setup             []float64
	heapMB            float64
	timed             []*opLog // timed-phase samples, one log per client
	verify            *Verifier
	layers            map[string]float64 // per-layer metrics (traced run)
	notMeasured       map[string]string  // per-layer metric → why it reads 0 here
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run's summary line and its result line.
func (r *result) print(o opts) error {
	lat, counts := r.latencies()
	var ms map[string]metric
	if o.trace {
		ms = map[string]metric{}
		for k, n := range r.verify.counts() {
			r.layers[k] = float64(n)
		}
		for _, d := range perLayer {
			ms[d.name] = metric{r.layers[d.name], d.unit}
		}
	} else {
		ms = r.endToEnd(lat)
	}
	perWin := make([]int, len(r.timed[0].ops))
	for _, l := range r.timed {
		for w, n := range l.ops {
			perWin[w] += n
		}
	}
	summary := map[string]any{
		"workload":       o.workload,
		"seed":           o.seed,
		"latency":        lat,
		"samples":        counts,
		"ops_per_window": perWin,
		"verify":         r.verify.counts(),
		"errors":         r.errs,
		"final_check": map[string]any{
			"checked": r.final.attempted,
			"failed":  r.final.failed,
			"errors":  r.final.errs,
		},
	}
	if o.trace {
		summary["not_measured"] = r.notMeasured
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.final.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd picks the gated end-to-end metrics: the ones every workload
// has, steady enough run to run to hold a bound (see README.md).
func (r *result) endToEnd(lat map[string]metric) map[string]metric {
	// The first and last windows are partial (ramp-up, clients stopping);
	// throughput is the ops completed in the whole ones over their length.
	windows := len(r.timed[0].ops)
	n := 0
	for _, l := range r.timed {
		for w := 1; w < windows-1; w++ {
			n += l.ops[w]
		}
	}
	return map[string]metric{
		"setup_s":   {median(append([]float64(nil), r.setup...)), "s"},
		"ops_per_s": {float64(n) / (float64(windows-2) * window.Seconds()), "1/s"},
		"heap_mb":   {r.heapMB, "MB"},
		"op_p50_us": lat["op_p50_us"],
	}
}

// latencies computes p50 and p99 of every op kind the workload's mix
// issued, and of all its ops together, over all of the timed phase's
// samples, with each kind's sample count.
func (r *result) latencies() (map[string]metric, map[string]int) {
	lat := map[string]metric{}
	counts := map[string]int{}
	for k := opKind(0); k < nKinds; k++ {
		var xs []uint32
		for _, l := range r.timed {
			xs = append(xs, l.lat[k]...)
		}
		if len(xs) == 0 {
			continue
		}
		lat[kindNames[k]+"_p50_us"] = metric{float64(quantile(xs, 0.50)) / 1e3, "us"}
		lat[kindNames[k]+"_p99_us"] = metric{float64(quantile(xs, 0.99)) / 1e3, "us"}
		counts[kindNames[k]] = len(xs)
	}
	return lat, counts
}

// memStats reads the runtime's memory counters after a collection, so the
// heap figure is the live heap, not the garbage since the last cycle.
func memStats() runtime.MemStats {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// buildTimes builds a workload's stack setups times, closing every build
// but the last, which it returns with each build's time in seconds.
func buildTimes[T any](build func() (T, error), close func(T) error) (T, []float64, error) {
	var cur T
	var times []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := close(cur); err != nil {
				return cur, nil, err
			}
			// Return the discarded build's memory, so every build and the
			// timed phase start from the same heap.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if cur, err = build(); err != nil {
			return cur, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return cur, times, nil
}

// phaseLog reports on standard error how long each phase of a run took.
type phaseLog struct {
	name string
	last time.Time
}

func newPhaseLog(name string) *phaseLog { return &phaseLog{name: name, last: time.Now()} }

func (p *phaseLog) done(phase string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s %.2fs\n", p.name, phase, now.Sub(p.last).Seconds())
	p.last = now
}
