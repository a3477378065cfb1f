package analysis

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/tsdb"
)

// countingQuerier counts the requests and statements that reach q and
// can embed an error in, or fail, the results it passes back.
type countingQuerier struct {
	q       tsdb.Querier
	mu      sync.Mutex
	calls   int
	stmts   int
	failAll error                     // transport failure of every request
	failOne func(tsdb.Statement) bool // statements answered with an embedded error
}

func (c *countingQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	c.mu.Lock()
	c.calls++
	c.stmts += len(req.Statements)
	c.mu.Unlock()
	if c.failAll != nil {
		return tsdb.Response{}, c.failAll
	}
	resp, err := c.q.Query(ctx, req)
	if err == nil && c.failOne != nil {
		for i, st := range req.Statements {
			if c.failOne(st) {
				resp.Results[i] = tsdb.ExecResult{Err: "boom"}
			}
		}
	}
	return resp, err
}

// reportText renders everything a report carries, for comparisons.
func reportText(rep *Report) string {
	return fmt.Sprintf("%s%+v\n%+v", rep.FormatTable(), rep.Violations, rep.Classification)
}

// TestEvaluateOneRequest: the evaluation fetches every distinct timeline
// of the specs, the rules and the branch check in one request, and a
// remote evaluation over HTTP reports exactly what a LocalQuerier run
// reports.
func TestEvaluateOneRequest(t *testing.T) {
	db, job := seedJobData(t)
	store := tsdb.NewStore()
	store.Attach(db)
	srv := httptest.NewServer(tsdb.NewHandler(store))
	defer srv.Close()

	local := &Evaluator{Querier: tsdb.LocalQuerier{Store: store}, Database: "lms",
		PeakMemBWMBs: 100000, PeakDPMFlops: 500000}
	want, err := local.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Pathological() {
		t.Fatal("seeded Fig. 4 break not detected")
	}
	cq := &countingQuerier{q: &tsdb.Client{BaseURL: srv.URL, Database: "lms"}}
	remote := *local
	remote.Querier = cq
	got, err := remote.Evaluate(job)
	if err != nil {
		t.Fatal(err)
	}
	if cq.calls != 1 {
		t.Fatalf("evaluation made %d requests, want 1", cq.calls)
	}
	// 7 spec fields, 1 more rule field (memory.used_percent) and the branch
	// field, per node; the rules' other timelines are the specs' own.
	if want := 9 * len(job.Nodes); cq.stmts != want {
		t.Fatalf("evaluation sent %d statements, want %d distinct timelines", cq.stmts, want)
	}
	if g, w := reportText(got), reportText(want); g != w {
		t.Fatalf("remote report diverged:\n%s\nlocal:\n%s", g, w)
	}
}

// TestEvaluateErrorNamesTimeline: a failure inside the batch still names
// the timeline it hit — the first affected one in spec, rule, branch
// order — and a transport failure names the first timeline of all.
func TestEvaluateErrorNamesTimeline(t *testing.T) {
	db, job := seedJobData(t)
	cq := &countingQuerier{q: tsdb.QuerierFor(db), failOne: func(st tsdb.Statement) bool {
		return st.Query.Measurement == "network" && st.Query.Filter["hostname"] == "h2"
	}}
	ev := &Evaluator{Querier: cq, Database: "lms"}
	_, err := ev.Evaluate(job)
	if err == nil || err.Error() != "analysis: network.rx_bytes_per_s on h2: tsdb: boom" {
		t.Fatalf("statement error reported as %v", err)
	}
	down := errors.New("connection refused")
	cq = &countingQuerier{failAll: down}
	ev.Querier = cq
	_, err = ev.Evaluate(job)
	if !errors.Is(err, down) || err.Error() != "analysis: cpu.percent on h1: connection refused" {
		t.Fatalf("transport error reported as %v", err)
	}
	if cq.calls != 1 {
		t.Fatalf("failed evaluation made %d requests", cq.calls)
	}
}
