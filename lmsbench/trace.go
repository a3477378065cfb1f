package main

// Benchmark tracing. The traced run records one span per benchmark
// operation plus one child span around every call into a layer's public
// entry point: wrapped http.Handlers on the router and each node, a timing
// router.Sink decorator and a timing tsdb.Querier decorator. Spans of one
// operation are correlated by the X-Lms-Trace id the stack already
// propagates (router → cluster coordinator → replicas). They are kept in
// memory and analysed when the run ends. Nothing here changes the program:
// with tracing off the stack runs with its plain handlers, sinks and
// clients.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/tsdb"
)

// Span layers, named after the modules they time.
const (
	layerOp           = "op"            // one benchmark operation, client side
	layerRouter       = "router"        // router /write handler (or in-process IngestBatch)
	layerClusterWrite = "cluster.write" // router sink call: ring split + replica fan-out
	layerTSDBWrite    = "tsdb.write"    // replica /write handler
	layerDashboard    = "dashboard"     // dashboard generate / render call
	layerAnalysis     = "analysis"      // evaluator: first to last of its Querier calls
	layerClient       = "tsdb.client"   // Querier call, client side
	layerClusterQuery = "cluster.query" // coordinator /query handler
	layerTSDBQuery    = "tsdb.query"    // peer /query handler answering from its own store (local=1)
)

// Operation kinds.
const (
	kindIngest = "ingest"
	kindView   = "view"
)

// layersOf lists each operation kind's layers from shallowest to deepest.
var layersOf = map[string][]string{
	kindIngest: {layerRouter, layerClusterWrite, layerTSDBWrite},
	kindView:   {layerDashboard, layerAnalysis, layerClient, layerClusterQuery, layerTSDBQuery},
}

type span struct {
	op         string
	layer      string
	start, end int64 // ns since the recorder's epoch
	n          int64 // layer-specific size: response bytes, statements
	fanAll     int64 // cluster.query: statements every node answers
	role       string
}

// recorder keeps the spans of one traced run. A nil *recorder records
// nothing.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	ring  *obs.TraceRing // only mints trace contexts; never finished

	mu      sync.Mutex
	spans   []span
	explain []explainSample
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), ring: obs.NewTraceRing(1)}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opCtx identifies the benchmark operation a context belongs to.
type opCtx struct {
	id      string
	explain bool // run this operation's SELECTs as EXPLAIN ANALYZE
}

type opKey struct{}

// newOp starts an operation: it returns a context carrying the op id as a
// trace, so the stack's own propagation stamps X-Lms-Trace with it. Nil
// recorders return ctx unchanged and an empty id.
func (r *recorder) newOp(ctx context.Context, explain bool) (context.Context, string) {
	if r == nil {
		return ctx, ""
	}
	id := fmt.Sprintf("b%015x", r.ids.Add(1))
	ctx = obs.WithTrace(ctx, r.ring.StartTrace("bench", id))
	return context.WithValue(ctx, opKey{}, &opCtx{id: id, explain: explain}), id
}

func opFrom(ctx context.Context) *opCtx {
	if o, ok := ctx.Value(opKey{}).(*opCtx); ok {
		return o
	}
	return &opCtx{}
}

// countingWriter counts the body bytes of a response.
type countingWriter struct {
	http.ResponseWriter
	bytes int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// wrapNode times an lms-db node's /write and /query handlers.
func (r *recorder) wrapNode(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var layer string
		switch req.URL.Path {
		case "/write":
			layer = layerTSDBWrite
		case "/query":
			layer = layerClusterQuery
			if req.URL.Query().Get("local") == "1" {
				layer = layerTSDBQuery
			}
		default:
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		end := time.Now()
		s := span{op: req.Header.Get(obs.TraceHeader), layer: layer,
			start: r.ns(start), end: r.ns(end), n: cw.bytes}
		if layer == layerClusterQuery {
			s.n, s.fanAll = statementCounts(req.URL.Query().Get("q"))
		}
		r.add(s)
	})
}

// statementCounts returns the statements of a coordinator query and how
// many of them every node answers (metadata spanning measurements), the
// split the coordinator applies (internal/cluster/querier.go).
func statementCounts(q string) (total, fanAll int64) {
	stmts, err := tsdb.ParseQuery(q)
	if err != nil {
		return 0, 0
	}
	for _, st := range stmts {
		switch st.Kind {
		case tsdb.StmtShowMeasurements, tsdb.StmtShowDatabases, tsdb.StmtCreateDatabase, tsdb.StmtDropDatabase:
			fanAll++
		case tsdb.StmtShowFieldKeys, tsdb.StmtShowTagKeys, tsdb.StmtShowTagValues:
			if st.Query.Measurement == "" {
				fanAll++
			}
		}
	}
	return int64(len(stmts)), fanAll
}

// wrapRouter times the router's /write handler.
func (r *recorder) wrapRouter(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/write" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(span{op: req.Header.Get(obs.TraceHeader), layer: layerRouter,
			start: r.ns(start), end: r.ns(time.Now())})
	})
}

// timedSink times each router sink call (one replicated batch).
type timedSink struct {
	s   router.Sink
	rec *recorder
}

func (r *recorder) wrapSink(s router.Sink) router.Sink {
	if r == nil {
		return s
	}
	return timedSink{s: s, rec: r}
}

func (t timedSink) WritePoints(pts []lineproto.Point) error {
	return t.WritePointsContext(context.Background(), pts)
}

func (t timedSink) WritePointsContext(ctx context.Context, pts []lineproto.Point) error {
	start := time.Now()
	var err error
	if cs, ok := t.s.(router.ContextSink); ok {
		err = cs.WritePointsContext(ctx, pts)
	} else {
		err = t.s.WritePoints(pts)
	}
	t.rec.add(span{op: obs.TraceFrom(ctx).ID(), layer: layerClusterWrite,
		start: t.rec.ns(start), end: t.rec.ns(time.Now()), n: int64(len(pts))})
	return err
}

// explainSample is the EXPLAIN ANALYZE profile of one SELECT.
type explainSample struct {
	op             string
	chunksDecoded  float64
	pointsExamined float64
}

// timedQuerier times each Querier call. On operations marked for EXPLAIN
// it runs every SELECT as EXPLAIN ANALYZE — the same execution with a
// profile series appended — records the profile and strips it, so the
// caller sees the SELECT's own result.
type timedQuerier struct {
	q    tsdb.Querier
	rec  *recorder
	role string // the component issuing the calls: analysis or dashboard
}

func (r *recorder) wrapQuerier(q tsdb.Querier, role string) tsdb.Querier {
	if r == nil {
		return q
	}
	return &timedQuerier{q: q, rec: r, role: role}
}

func (t *timedQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	op := opFrom(ctx)
	if op.explain {
		stmts := req.Statements
		if len(stmts) == 0 {
			parsed, err := tsdb.ParseQuery(req.RawQuery)
			if err != nil {
				return tsdb.Response{}, err
			}
			stmts = parsed
		}
		req.Statements = make([]tsdb.Statement, len(stmts))
		for i, st := range stmts {
			if st.Kind == tsdb.StmtSelect {
				st.Kind = tsdb.StmtExplainAnalyze
			}
			req.Statements[i] = st
		}
	}
	start := time.Now()
	resp, err := t.q.Query(ctx, req)
	t.rec.add(span{op: op.id, layer: layerClient, role: t.role,
		start: t.rec.ns(start), end: t.rec.ns(time.Now()), n: int64(len(req.Statements))})
	if err == nil && op.explain {
		t.stripExplain(op.id, &resp)
	}
	return resp, err
}

func (t *timedQuerier) stripExplain(op string, resp *tsdb.Response) {
	for i := range resp.Results {
		res := &resp.Results[i]
		kept := res.Series[:0]
		for _, s := range res.Series {
			if !strings.HasPrefix(s.Name, tsdb.ExplainSeriesName) {
				kept = append(kept, s)
				continue
			}
			if s.Name != tsdb.ExplainSeriesName {
				continue
			}
			smp := explainSample{op: op}
			for _, row := range s.Values {
				if len(row) != 2 {
					continue
				}
				v, _ := tsdb.FloatValue(row[1])
				switch row[0] {
				case "chunks_decoded":
					smp.chunksDecoded = v
				case "points_examined":
					smp.pointsExamined = v
				}
			}
			t.rec.mu.Lock()
			t.rec.explain = append(t.rec.explain, smp)
			t.rec.mu.Unlock()
		}
		if len(kept) == 0 {
			kept = nil
		}
		res.Series = kept
	}
}
