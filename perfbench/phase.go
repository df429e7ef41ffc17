package main

import (
	"sync"
	"time"
)

// tally is one client's op outcome counts, merged into the result after
// the client stops (so the hot loop shares nothing).
type tally struct {
	attempted, failed int64
	errs              []string
	userBytes         int64 // bytes the workload wrote (the denominator of write amplification)
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (r *result) merge(ts []tally) {
	for _, t := range ts {
		r.attempted += t.attempted
		r.failed += t.failed
		for _, e := range t.errs {
			if len(r.errs) < 8 {
				r.errs = append(r.errs, e)
			}
		}
	}
}

// timedPhase runs body on each client for seconds, returning each client's
// samples and tallies. body loops until the clock passes deadline; the
// times it records are relative to the phase start. In a traced run the
// tracer is switched on for every odd window, so traced and untraced
// windows interleave and share any drift in the machine's load.
func timedPhase(t *tracer, traced bool, seconds int, body func(ci int, l *opLog, ta *tally, start, deadline time.Duration)) ([]*opLog, []tally) {
	windows := seconds
	start := t.clock()
	deadline := start + time.Duration(seconds)*window
	logs := make([]*opLog, clients)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 1; ; w++ {
				select {
				case <-stop:
					t.on.Store(false)
					return
				case <-time.After(start + time.Duration(w)*window - t.clock()):
					t.on.Store(w%2 == 1)
				}
			}
		}()
	}
	var cw sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		logs[ci] = newOpLog(windows)
		cw.Add(1)
		go func(ci int) {
			defer cw.Done()
			body(ci, logs[ci], &tallies[ci], start, deadline)
		}(ci)
	}
	cw.Wait()
	close(stop)
	wg.Wait()
	return logs, tallies
}

// traceOverhead is the share of throughput tracing cost in a traced run:
// 1 − median(traced windows)/median(untraced windows), over the whole
// windows (the partial first and last are dropped), ops summed over
// clients.
func traceOverhead(logs []*opLog) float64 {
	var off, on []float64
	windows := len(logs[0].ops)
	for w := 1; w < windows-1; w++ {
		n := 0
		for _, l := range logs {
			n += l.ops[w]
		}
		if w%2 == 1 {
			on = append(on, float64(n))
		} else {
			off = append(off, float64(n))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 1 - median(on)/median(off)
}
