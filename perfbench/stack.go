package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/txn"
)

// geometry sizes each simulated disk. rhodosd's -tracks default (4096, a
// 256 MB platter) would make the device simulator allocate 1.5 GB for the
// two nodes' data and mirror disks; 1024 tracks (64 MB) holds the largest
// working set here (16 MiB) four times over at a quarter of the memory.
var geometry = device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}

// replTTL is the shard pair's replication lease. rhodosd's default
// (cluster.DefaultReplTTL, 1 s) is a failure detector for a primary on
// another host; here both nodes share one process on one host, so a
// stall of that host for over a second (CPU steal on a shared VM) stops
// the primary's heartbeats and the backup's watchdog alike, and the
// backup promotes itself while the primary lives. The run then measures
// a split pair, not the replicated shard, and loses an acknowledged
// create (see README.md, "Known failure sources"). Ten seconds is far
// above the stalls seen on such a host; heartbeats every TTL/3 are the
// only other thing it changes.
const replTTL = 10 * time.Second

// node is one rhodosd: the facility, the rpcfs handler, the lease manager,
// the cluster service and the TCP endpoint, wired as cmd/rhodosd wires them.
type node struct {
	fac   *core.Cluster
	rec   *obs.Recorder
	ccSrv *ccache.Server
	svc   *cluster.Service
	tcp   *rpc.TCPServer
	bk    *rpc.TCPTransport // the primary's connection to its backup
	free0 int               // free fragments on disk 0 before any file existed
}

// stack is one replicated shard (primary + backup on loopback) and the
// benchmark's clients.
type stack struct {
	nodes   [2]*node // primary, backup
	clients []*client
}

// client is one agent: its own router (one connection to the shard) and,
// in cached mode, the coherent client cache in front of it.
type client struct {
	id  uint64
	rt  *cluster.Router
	cc  *ccache.Client // nil when uncached
	rec *obs.Recorder  // client-side telemetry (cache, router counters)
	met *metrics.Set   // rpc client counters (retries)
}

// clientIDs are the benchmark clients' rpc identities (nonzero, distinct
// from the replication stream's cluster.ReplClientID).
func clientIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(101 + i)
	}
	return ids
}

// buildStack boots the primary and its backup on loopback and connects n
// clients, cached or not. t, when set, wraps every seam with its spans.
func buildStack(n int, cached bool, t *tracer) (*stack, error) {
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
	}
	m := cluster.Map{Version: 1, Endpoints: []string{lns[0].Addr().String()}, Backups: []string{lns[1].Addr().String()}}
	st := &stack{}
	var err error
	// The backup boots first so the primary's lazy dial finds it.
	if st.nodes[1], err = buildNode(1, cluster.RoleBackup, m, lns[1], t); err != nil {
		lns[0].Close()
		return nil, err
	}
	if st.nodes[0], err = buildNode(0, cluster.RolePrimary, m, lns[0], t); err != nil {
		st.close()
		return nil, err
	}
	for _, id := range clientIDs(n) {
		c, err := dialClient(id, m, cached, t)
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// buildNode builds one node as cmd/rhodosd's run does, at its default cache
// sizes, serving on ln.
func buildNode(idx int8, role cluster.Role, m cluster.Map, ln net.Listener, t *tracer) (*node, error) {
	nd := &node{rec: obs.New()}
	var svcPtr atomic.Pointer[cluster.Service]
	var barrier func() error
	if role == cluster.RolePrimary {
		barrier = func() error {
			if s := svcPtr.Load(); s != nil {
				return s.ReplBarrier()
			}
			return nil
		}
	}
	fac, err := core.New(core.Config{
		Geometry:    geometry,
		Obs:         nd.rec,
		GroupCommit: txn.GroupCommitConfig{Barrier: barrier},
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("building facility: %w", err)
	}
	nd.fac = fac
	nd.free0 = fac.DiskServer(0).FreeFragments()
	var backup *rpc.Client
	if role == cluster.RolePrimary {
		nd.bk, err = rpc.DialTCP(m.Backups[0], rpc.WithLazyDial())
		if err != nil {
			ln.Close()
			nd.close()
			return nil, fmt.Errorf("dialing backup: %w", err)
		}
		backup = rpc.NewClient(nd.bk, cluster.ReplClientID(0), 3, nil)
	}
	srv := &rpcfs.Server{Files: fac.Files, Naming: fac.Naming}
	rpcfsH := srv.HandlerCtx()
	if t != nil {
		rpcfsH = t.inner(idx, seamRPCFS, rpcfsH)
	}
	nd.ccSrv, err = ccache.NewServer(ccache.ServerConfig{
		Inner: rpcfsH,
		Size:  func(file uint64) (int64, error) { return fac.Files.Size(fileservice.FileID(file)) },
		Obs:   nd.rec,
	})
	if err != nil {
		ln.Close()
		nd.close()
		return nil, err
	}
	innerCtx := nd.ccSrv.HandlerCtx
	if t != nil {
		innerCtx = t.inner(idx, seamCluster, innerCtx)
	}
	nd.svc, err = cluster.NewService(cluster.ServiceConfig{
		Map:      m,
		Inner:    nd.ccSrv.Handler,
		InnerCtx: innerCtx,
		Locks:    fac.Locks(),
		Role:     role,
		Backup:   backup,
		ReplTTL:  replTTL,
		Obs:      nd.rec,
	})
	if err != nil {
		ln.Close()
		nd.close()
		return nil, err
	}
	svcPtr.Store(nd.svc)
	h := rpc.CtxRequestHandler(nd.svc.HandleRequestCtx)
	if t != nil {
		h = t.handler(idx, h)
	}
	ep := rpc.NewEndpoint(nil, rpc.WithCtxRequestHandler(h), rpc.WithMetrics(fac.Metrics), rpc.WithObs(nd.rec))
	nd.svc.BindEndpoint(ep)
	nd.tcp = rpc.Serve(ln, ep)
	return nd, nil
}

// dialClient builds one client as cmd/rhodos builds a routed one: a router
// over the shard's endpoint and backup, and with cached set, the coherent
// cache fed by the router's push sink.
func dialClient(id uint64, m cluster.Map, cached bool, t *tracer) (*client, error) {
	c := &client{id: id, rec: obs.New(), met: metrics.NewSet()}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Endpoints: m.Endpoints,
		Backups:   m.Backups,
		ClientID:  id,
		Metrics:   c.met,
		Obs:       c.rec,
	})
	if err != nil {
		return nil, err
	}
	c.rt = rt
	if !cached {
		return c, nil
	}
	cfg := ccache.Config{Inner: rt, Lease: rt, ClientID: id, Obs: c.rec}
	if t != nil {
		cfg.Inner = tracedInner{t: t, client: id, r: rt}
		cfg.Lease = tracedLease{t: t, client: id, l: rt}
	}
	cc, err := ccache.New(cfg)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	rt.SetPushSink(func(shard int, method string, body []byte) {
		if method != ccache.MRecall {
			return
		}
		if file, ver, err := ccache.DecodeRecall(body); err == nil {
			cc.Recall(fileservice.FileID(cluster.RoutedID(shard, file)), ver)
		}
	}, func(shard int, err error) { cc.DropLeases(nil) })
	c.cc = cc
	return c, nil
}

// close stops the clients (flushing and releasing any cached leases), then
// the primary and the backup.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		if c.cc != nil {
			if err := c.cc.Shutdown(); err != nil {
				errs = append(errs, fmt.Errorf("client %d cache shutdown: %w", c.id, err))
			}
		}
		c.rt.Shutdown()
	}
	for _, nd := range st.nodes {
		if nd != nil {
			errs = append(errs, nd.close())
		}
	}
	return errors.Join(errs...)
}

// close shuts a node down in the reverse of cmd/rhodosd's build order.
func (nd *node) close() error {
	if nd.tcp != nil {
		_ = nd.tcp.Close()
	}
	if nd.svc != nil {
		nd.svc.Close()
	}
	if nd.ccSrv != nil {
		nd.ccSrv.Close()
	}
	if nd.bk != nil {
		_ = nd.bk.Close()
	}
	if err := nd.fac.Close(); err != nil {
		return fmt.Errorf("facility shutdown: %w", err)
	}
	return nil
}
