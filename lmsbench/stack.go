package main

// The stack under test, started the way cmd/lms-db and cmd/lms-router
// deploy it but inside this process: three durable lms-db nodes in cluster
// mode (R=2) and a pure-coordinator router (W=1, per-user duplication,
// durable hinted handoff), talking over loopback HTTP.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/tsdb"
	"repro/internal/tsdb/durable"
)

const (
	numNodes    = 3
	replication = 2
	writeQuorum = 1
	primaryDB   = "lms"
	// nodePort is the first node's loopback port. The ring places data
	// by node URL, so fixed ports give every run the same placement:
	// which measurements a coordinator serves from its own store, and
	// which it forwards, would otherwise change from run to run.
	nodePort = 17301
)

type stackConfig struct {
	dir           string
	traces        int           // per-process trace ring capacity; the binaries ship 256
	compressAfter time.Duration // 0 keeps runs raw, the lms-db default
	rec           *recorder     // nil: no benchmark tracing
	now           func() time.Time
}

// server is one HTTP listener with its serving goroutine.
type server struct {
	srv  *http.Server
	done chan error
}

func serve(ln net.Listener, h http.Handler) *server {
	s := &server{srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s
}

// shutdown stops accepting, lets in-flight requests finish and waits for
// the serving goroutine.
func (s *server) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

type dbNode struct {
	url   string
	dir   string
	store *tsdb.Store
	clu   *cluster.Cluster
	http  *server
}

type stack struct {
	cfg       stackConfig
	peers     []string
	nodes     []*dbNode
	rclu      *cluster.Cluster
	rt        *router.Router
	rhttp     *server
	routerURL string
	// client is used for scrapes and checks; never for measured traffic.
	client *http.Client
}

// startStack brings up the three nodes on their fixed loopback ports and
// the router on a fresh one.
func startStack(cfg stackConfig) (*stack, error) {
	st := &stack{cfg: cfg, client: &http.Client{Timeout: 30 * time.Second}}
	var lns []net.Listener
	for i := 0; i < numNodes; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", nodePort+i))
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns = append(lns, ln)
		st.peers = append(st.peers, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		n, err := st.openNode(i, ln)
		if err != nil {
			closeListeners(lns[i:])
			_ = st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if err := st.startRouter(); err != nil {
		_ = st.close()
		return nil, err
	}
	return st, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		_ = ln.Close()
	}
}

// openNode opens node i's store and serves it on ln, as lms-db does with
// -data-dir, -fsync batch, -traces and -cluster-peers.
func (st *stack) openNode(i int, ln net.Listener) (*dbNode, error) {
	n := &dbNode{url: st.peers[i], dir: filepath.Join(st.cfg.dir, fmt.Sprintf("node%d", i))}
	store, err := tsdb.OpenStore(tsdb.StoreOptions{
		CompressAfter: st.cfg.compressAfter,
		Durability:    tsdb.Durability{Dir: n.dir, Fsync: durable.FsyncPerBatch},
	})
	if err != nil {
		return nil, err
	}
	if _, err := store.OpenDatabase(primaryDB); err != nil {
		_ = store.Close()
		return nil, err
	}
	if st.cfg.traces > 0 {
		store.SetTraces(obs.NewTraceRing(st.cfg.traces))
	}
	handler := tsdb.NewHandler(store)
	handler.SetAdmission(0, 0)
	clu, err := cluster.New(cluster.Config{
		Peers: st.peers, Self: n.url, SelfStore: store, Replication: replication,
	})
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	handler.Distributed = clu.Querier()
	clu.RegisterMetrics(store.Metrics().Registry())
	n.store, n.clu = store, clu
	n.http = serve(ln, st.cfg.rec.wrapNode(handler))
	return n, nil
}

// startRouter starts the pure-coordinator router as lms-router does with
// -cluster-peers, -replication 2, -write-quorum 1, -hints-dir, -user-dbs
// and -traces.
func (st *stack) startRouter() error {
	clu, err := cluster.New(cluster.Config{
		Peers: st.peers, Replication: replication, WriteQuorum: writeQuorum,
		HintsDir: filepath.Join(st.cfg.dir, "hints"),
	})
	if err != nil {
		return err
	}
	rec := st.cfg.rec
	cfg := router.Config{
		Primary: rec.wrapSink(clu.SinkFor(primaryDB)),
		UserSink: func(user string) router.Sink {
			return rec.wrapSink(clu.SinkFor("user_" + user))
		},
		Now: st.cfg.now,
	}
	if st.cfg.traces > 0 {
		cfg.Traces = obs.NewTraceRing(st.cfg.traces)
	}
	rt, err := router.New(cfg)
	if err != nil {
		_ = clu.Close()
		return err
	}
	clu.RegisterMetrics(rt.Metrics())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = clu.Close()
		return err
	}
	st.rclu, st.rt = clu, rt
	st.routerURL = "http://" + ln.Addr().String()
	st.rhttp = serve(ln, rec.wrapRouter(rt))
	return nil
}

// close shuts everything down gracefully: servers first (in-flight
// requests finish), then the cluster views, then the stores (WAL flush and
// final checkpoint).
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.rhttp != nil {
		keep(st.rhttp.shutdown())
		st.rhttp = nil
	}
	if st.rclu != nil {
		keep(st.rclu.Close())
		st.rclu = nil
	}
	for _, n := range st.nodes {
		if n.http != nil {
			keep(n.http.shutdown())
			n.http = nil
		}
		if n.clu != nil {
			keep(n.clu.Close())
			n.clu = nil
		}
		if n.store != nil {
			keep(n.store.Close())
			n.store = nil
		}
	}
	st.client.CloseIdleConnections()
	return first
}

// restart closes the whole stack gracefully and reopens every node's data
// directory on its old address, then starts a fresh router. It returns
// the time the three stores took to recover.
func (st *stack) restart() (time.Duration, error) {
	if err := st.close(); err != nil {
		return 0, err
	}
	var recovery time.Duration
	nodes := st.nodes
	st.nodes = nil
	for i, old := range nodes {
		ln, err := net.Listen("tcp", strings.TrimPrefix(old.url, "http://"))
		if err != nil {
			_ = st.close()
			return 0, fmt.Errorf("relisten %s: %w", old.url, err)
		}
		start := time.Now()
		n, err := st.openNode(i, ln)
		recovery += time.Since(start)
		if err != nil {
			_ = ln.Close()
			_ = st.close()
			return 0, err
		}
		st.nodes = append(st.nodes, n)
	}
	if err := st.startRouter(); err != nil {
		_ = st.close()
		return 0, err
	}
	return recovery, nil
}

// scrapeAll scrapes every node and the router.
func (st *stack) scrapeAll() (scrapeSet, error) {
	var s scrapeSet
	for _, n := range st.nodes {
		d, err := scrape(st.client, n.url)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, d)
	}
	d, err := scrape(st.client, st.routerURL)
	if err != nil {
		return s, err
	}
	s.router = d
	return s, nil
}

// dataBytes is the size of the three nodes' data directories.
func (st *stack) dataBytes() (int64, error) {
	var total int64
	for _, n := range st.nodes {
		b, err := dirBytes(n.dir, "")
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// coordinator is the node the benchmark's readers query through.
func (st *stack) coordinator() string { return st.nodes[0].url }

func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "lmsbench: remove %s: %v\n", dir, err)
	}
}
