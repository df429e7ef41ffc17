package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// subtreeSelf sums the self times of span i and everything below it.
func subtreeSelf(tr *tree, i int) time.Duration {
	d := tr.self[i]
	for _, k := range tr.children[i] {
		d += subtreeSelf(tr, k)
	}
	return d
}

func TestSelfTimesSumToRoot(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, seam: seamOp, node: -1, client: 7, start: 0, end: 100 * ms},
		{id: 2, seam: seamCCInner, node: -1, client: 7, start: 5 * ms, end: 95 * ms},
		{id: 3, seam: seamHandler, client: 7, start: 10 * ms, end: 90 * ms},
		{id: 4, parent: 3, seam: seamCluster, start: 20 * ms, end: 80 * ms},
		{id: 5, parent: 4, seam: seamRPCFS, start: 30 * ms, end: 50 * ms},
		{id: 6, parent: 4, seam: seamRPCFS, start: 50 * ms, end: 70 * ms},
	}
	tr := analyse(spans, map[uint64]bool{7: true})
	if got := subtreeSelf(tr, 0); got != 100*ms {
		t.Fatalf("self times sum to %v, want the root's 100ms", got)
	}
	want := map[uint64]time.Duration{1: 10 * ms, 2: 10 * ms, 3: 20 * ms, 4: 20 * ms, 5: 20 * ms, 6: 20 * ms}
	for i, s := range tr.spans {
		if tr.self[i] != want[s.id] {
			t.Errorf("span %d self = %v, want %v", s.id, tr.self[i], want[s.id])
		}
	}
	if tr.opOf[2] != 0 {
		t.Errorf("handler joined to op %d, want 0", tr.opOf[2])
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{start: 0, end: 100},
		{start: 10, end: 40}, {start: 30, end: 60}, {start: 90, end: 120},
	}
	if got := covered(&spans[0], spans, []int{1, 2, 3}); got != 60 {
		t.Fatalf("covered = %v, want 60 (10–60 once, 90–100 clipped)", got)
	}
}

// TestClosedLoopJoin drives the real seam wrappers from two closed-loop
// clients and checks every server span joins exactly one client op, and
// that each op's tree accounts for its whole duration.
func TestClosedLoopJoin(t *testing.T) {
	clock := wallClock()
	ids := clientIDs(2)
	tr := newTracer(clock, ids)
	tr.on.Store(true)
	leaf := func(ctx context.Context, method string, body []byte) ([]byte, error) {
		time.Sleep(50 * time.Microsecond)
		return nil, nil
	}
	rpcfsSeam := tr.inner(0, seamRPCFS, leaf)
	clusterSeam := tr.inner(0, seamCluster, func(ctx context.Context, method string, body []byte) ([]byte, error) {
		return rpcfsSeam(ctx, method, body)
	})
	handler := tr.handler(0, func(ctx context.Context, req rpc.Request) ([]byte, error) {
		return clusterSeam(ctx, req.Method, req.Body)
	})
	const opsPerClient = 200
	var wg sync.WaitGroup
	for ci, id := range ids {
		wg.Add(1)
		go func(ci int, id uint64) {
			defer wg.Done()
			for j := 0; j < opsPerClient; j++ {
				traced, t0 := tr.opBegin(id)
				// Half the ops go through a client-side seam (as cached
				// ops do); some make two calls (as small-files ops do).
				call := func() { _, _ = handler(context.Background(), rpc.Request{ClientID: id, Method: "fs.readAt"}) }
				if j%2 == 0 {
					tr.clientCall(seamCCInner, id, "readAt", call)
				} else {
					call()
				}
				if j%3 == 0 {
					call()
				}
				tr.opEnd(traced, id, "read", t0)
			}
		}(ci, id)
	}
	wg.Wait()
	set := map[uint64]bool{ids[0]: true, ids[1]: true}
	a := analyse(tr.spans, set)
	if a.unattached != 0 {
		t.Fatalf("%d server spans joined no op", a.unattached)
	}
	parents := make([]int, len(a.spans))
	for i := range a.children {
		for _, k := range a.children[i] {
			parents[k]++
		}
	}
	ops, handlers := 0, 0
	for i, s := range a.spans {
		switch s.seam {
		case seamOp:
			ops++
			if got := subtreeSelf(a, i); got != s.dur() {
				t.Fatalf("op %d: subtree self time %v, op duration %v", s.id, got, s.dur())
			}
		case seamHandler:
			handlers++
			if parents[i] != 1 || a.opOf[i] < 0 || a.spans[a.opOf[i]].client != s.client {
				t.Fatalf("handler span %d: %d parents, op %d", s.id, parents[i], a.opOf[i])
			}
		default:
			if parents[i] != 1 {
				t.Fatalf("%v span %d has %d parents", s.seam, s.id, parents[i])
			}
		}
	}
	wantHandlers := 2 * (opsPerClient + (opsPerClient+2)/3)
	if ops != 2*opsPerClient || handlers != wantHandlers {
		t.Fatalf("recorded %d ops and %d handler spans, want %d and %d", ops, handlers, 2*opsPerClient, wantHandlers)
	}
}

func TestUntracedClientRecordsNothing(t *testing.T) {
	tr := newTracer(wallClock(), clientIDs(1))
	h := tr.handler(0, func(ctx context.Context, req rpc.Request) ([]byte, error) { return nil, nil })
	traced, t0 := tr.opBegin(101)
	_, _ = h(context.Background(), rpc.Request{ClientID: 101})
	tr.opEnd(traced, 101, "read", t0)
	if traced || len(tr.spans) != 0 {
		t.Fatalf("tracing off recorded %d spans", len(tr.spans))
	}
}
