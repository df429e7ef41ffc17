package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/rpc"
)

// seam names a boundary where the traced run records spans. Every seam is
// a place where the program already takes an interface or a handler
// function, so the spans come from wrappers in this package, not from
// instrumentation inside the program.
type seam uint8

const (
	seamOp      seam = iota // one client operation, timed by the workload loop
	seamCCInner             // ccache.Config.Inner: the cache's calls into the router
	seamCCLease             // ccache.Config.Lease: the cache's lease-protocol calls
	seamHandler             // the rpc endpoint's request handler (cluster.Service)
	seamCluster             // cluster.ServiceConfig.InnerCtx: the ccache lease manager
	seamRPCFS               // ccache.ServerConfig.Inner: the rpcfs handler
	seamTxn                 // txn.Service calls on txn-commit
)

// clientSide reports whether spans at s are recorded on the client.
func (s seam) clientSide() bool { return s <= seamCCLease }

// span is one recorded interval. Server-side spans name their parent
// through the handler's ctx; client-side spans and server roots are joined
// afterwards by client ID and time containment, which is exact because each
// client has one operation outstanding at a time.
type span struct {
	id, parent uint64
	seam       seam
	node       int8 // 0 primary, 1 backup; -1 on the client
	name       string
	client     uint64
	start, end time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

type spanKey struct{}

// tracer keeps spans in memory until the run ends. Server spans are kept
// only while the requesting client has a traced operation in flight (or,
// for requests from no benchmark client — replication batches — while
// tracing is on), so every kept server span belongs to a kept tree.
type tracer struct {
	clock  func() time.Duration
	on     atomic.Bool
	active map[uint64]*atomic.Bool // benchmark client ID → traced op in flight
	next   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(clock func() time.Duration, clients []uint64) *tracer {
	t := &tracer{clock: clock, active: make(map[uint64]*atomic.Bool)}
	for _, c := range clients {
		t.active[c] = new(atomic.Bool)
	}
	return t
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recording reports whether a request from client should be traced.
func (t *tracer) recording(client uint64) bool {
	if f, ok := t.active[client]; ok {
		return f.Load()
	}
	return t.on.Load()
}

// opBegin marks the start of one client operation. It returns whether the
// op is traced and its start time; opEnd records it.
func (t *tracer) opBegin(client uint64) (bool, time.Duration) {
	start := t.clock()
	if !t.on.Load() {
		return false, start
	}
	t.active[client].Store(true)
	return true, start
}

func (t *tracer) opEnd(traced bool, client uint64, name string, start time.Duration) {
	if !traced {
		return
	}
	t.active[client].Store(false)
	t.record(span{id: t.next.Add(1), seam: seamOp, node: -1, name: name, client: client, start: start, end: t.clock()})
}

// handler wraps the endpoint's request handler: the root of each server
// tree. The span's ID rides ctx so the inner seams can name their parent.
func (t *tracer) handler(node int8, h rpc.CtxRequestHandler) rpc.CtxRequestHandler {
	return func(ctx context.Context, req rpc.Request) ([]byte, error) {
		if !t.recording(req.ClientID) {
			return h(ctx, req)
		}
		id, start := t.next.Add(1), t.clock()
		out, err := h(context.WithValue(ctx, spanKey{}, id), req)
		t.record(span{id: id, seam: seamHandler, node: node, name: req.Method, client: req.ClientID, start: start, end: t.clock()})
		return out, err
	}
}

// inner wraps a ctx handler one level below the endpoint (the cluster
// service's InnerCtx, or the lease manager's Inner); it records only under
// a recorded parent.
func (t *tracer) inner(node int8, s seam, h func(context.Context, string, []byte) ([]byte, error)) func(context.Context, string, []byte) ([]byte, error) {
	return func(ctx context.Context, method string, body []byte) ([]byte, error) {
		parent, ok := ctx.Value(spanKey{}).(uint64)
		if !ok {
			return h(ctx, method, body)
		}
		id, start := t.next.Add(1), t.clock()
		out, err := h(context.WithValue(ctx, spanKey{}, id), method, body)
		t.record(span{id: id, parent: parent, seam: s, node: node, name: method, start: start, end: t.clock()})
		return out, err
	}
}

// clientCall records one client-side seam call of client.
func (t *tracer) clientCall(s seam, client uint64, name string, fn func()) {
	if !t.recording(client) {
		fn()
		return
	}
	start := t.clock()
	fn()
	t.record(span{id: t.next.Add(1), seam: s, node: -1, name: name, client: client, start: start, end: t.clock()})
}

// txnCall records one txn.Service call on the in-process workload, under
// the committer's pseudo client ID.
func (t *tracer) txnCall(client uint64, name string, fn func() error) error {
	var err error
	t.clientCall(seamTxn, client, name, func() { err = fn() })
	return err
}

// fileServiceCtx is the router's trace-context data path, which the cache
// prefers when its Inner provides it; the seam keeps it.
type fileServiceCtx interface {
	ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error)
}

var (
	_ agent.FileService     = tracedInner{}
	_ fileServiceCtx        = tracedInner{}
	_ ccache.LeaseTransport = tracedLease{}
)

// tracedInner is the ccache.Config.Inner seam: the router, as the cache
// sees it, with every call recorded.
type tracedInner struct {
	t      *tracer
	client uint64
	r      *cluster.Router
}

func (w tracedInner) Create(attr fit.Attributes) (id fileservice.FileID, err error) {
	w.t.clientCall(seamCCInner, w.client, "create", func() { id, err = w.r.Create(attr) })
	return id, err
}

func (w tracedInner) Open(id fileservice.FileID) (err error) {
	w.t.clientCall(seamCCInner, w.client, "open", func() { err = w.r.Open(id) })
	return err
}

func (w tracedInner) Close(id fileservice.FileID) (err error) {
	w.t.clientCall(seamCCInner, w.client, "close", func() { err = w.r.Close(id) })
	return err
}

func (w tracedInner) Delete(id fileservice.FileID) (err error) {
	w.t.clientCall(seamCCInner, w.client, "delete", func() { err = w.r.Delete(id) })
	return err
}

func (w tracedInner) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return w.ReadAtCtx(context.Background(), id, off, n)
}

func (w tracedInner) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return w.WriteAtCtx(context.Background(), id, off, data)
}

func (w tracedInner) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) (out []byte, err error) {
	w.t.clientCall(seamCCInner, w.client, "readAt", func() { out, err = w.r.ReadAtCtx(ctx, id, off, n) })
	return out, err
}

func (w tracedInner) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (n int, err error) {
	w.t.clientCall(seamCCInner, w.client, "writeAt", func() { n, err = w.r.WriteAtCtx(ctx, id, off, data) })
	return n, err
}

func (w tracedInner) Truncate(id fileservice.FileID, size int64) (err error) {
	w.t.clientCall(seamCCInner, w.client, "truncate", func() { err = w.r.Truncate(id, size) })
	return err
}

func (w tracedInner) Attributes(id fileservice.FileID) (a fit.Attributes, err error) {
	w.t.clientCall(seamCCInner, w.client, "attributes", func() { a, err = w.r.Attributes(id) })
	return a, err
}

func (w tracedInner) Size(id fileservice.FileID) (n int64, err error) {
	w.t.clientCall(seamCCInner, w.client, "size", func() { n, err = w.r.Size(id) })
	return n, err
}

// tracedLease is the ccache.Config.Lease seam.
type tracedLease struct {
	t      *tracer
	client uint64
	l      ccache.LeaseTransport
}

func (w tracedLease) AcquireLease(file, client uint64, mode byte) (g ccache.Grant, err error) {
	w.t.clientCall(seamCCLease, w.client, ccache.MLeaseAcquire, func() { g, err = w.l.AcquireLease(file, client, mode) })
	return g, err
}

func (w tracedLease) ReleaseLease(file, client uint64) (err error) {
	w.t.clientCall(seamCCLease, w.client, ccache.MLeaseRelease, func() { err = w.l.ReleaseLease(file, client) })
	return err
}

func (w tracedLease) AckRecall(file, client uint64) (err error) {
	w.t.clientCall(seamCCLease, w.client, ccache.MLeaseAck, func() { err = w.l.AckRecall(file, client) })
	return err
}

// tree is the analysed span set: every span's children (explicit parents
// on the server, containment joins across the wire) and self time.
type tree struct {
	spans    []span
	children [][]int // span index → child span indexes
	self     []time.Duration
	opOf     []int // server root index → owning op index (-1 if none)
	// unattached counts server roots of benchmark clients that no traced
	// client op contains (a recall ack racing the end of an op).
	unattached int
}

// analyse joins the spans into trees and computes self times. clients is
// the set of benchmark client IDs whose server spans join client ops.
func analyse(spans []span, clients map[uint64]bool) *tree {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	tr := &tree{spans: spans, children: make([][]int, len(spans)), self: make([]time.Duration, len(spans)), opOf: make([]int, len(spans))}
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].id] = i
		tr.opOf[i] = -1
	}
	// Client-side spans per client, in start order. Ops never overlap
	// within a client (one op outstanding); seam calls nest inside ops,
	// though a recall ack on the push goroutine may overlap another call.
	ops := map[uint64][]int{}
	calls := map[uint64][]int{}
	for i := range spans {
		switch s := &spans[i]; {
		case s.seam == seamOp:
			ops[s.client] = append(ops[s.client], i)
		case s.seam.clientSide() || s.seam == seamTxn:
			calls[s.client] = append(calls[s.client], i)
		}
	}
	// containing returns the latest-starting entry of list, starting no
	// earlier than lo, whose interval contains s; -1 if there is none.
	containing := func(list []int, s *span, lo time.Duration) int {
		k := sort.Search(len(list), func(k int) bool { return spans[list[k]].start > s.start }) - 1
		for ; k >= 0 && spans[list[k]].start >= lo; k-- {
			if spans[list[k]].end >= s.end {
				return list[k]
			}
		}
		return -1
	}
	opContaining := func(s *span) int {
		list := ops[s.client]
		k := sort.Search(len(list), func(k int) bool { return spans[list[k]].start > s.start }) - 1
		if k >= 0 && spans[list[k]].end >= s.end {
			return list[k]
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.parent != 0:
			if p, ok := byID[s.parent]; ok {
				tr.children[p] = append(tr.children[p], i)
			}
		case s.seam == seamCCInner || s.seam == seamCCLease || s.seam == seamTxn:
			if op := opContaining(s); op >= 0 {
				tr.children[op] = append(tr.children[op], i)
			}
		case s.seam == seamHandler && clients[s.client]:
			op := opContaining(s)
			if op < 0 {
				tr.unattached++
				continue
			}
			tr.opOf[i] = op
			owner := op
			if c := containing(calls[s.client], s, spans[op].start); c >= 0 {
				owner = c
			}
			tr.children[owner] = append(tr.children[owner], i)
		}
	}
	for i := range spans {
		tr.self[i] = spans[i].dur() - covered(&spans[i], spans, tr.children[i])
	}
	return tr
}

// covered is how much of s the union of its children's intervals spans.
func covered(s *span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}
