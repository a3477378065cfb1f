package dashboard

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/tsdb"
)

// countingQuerier counts the requests and statements that reach q.
type countingQuerier struct {
	q     tsdb.Querier
	mu    sync.Mutex
	calls []int // statements per request
}

func (c *countingQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	c.mu.Lock()
	c.calls = append(c.calls, len(req.Statements))
	c.mu.Unlock()
	return c.q.Query(ctx, req)
}

// TestRenderDashboardBatchesPanels: a rendered job dashboard costs one
// request for its annotations and one for all panel targets, over HTTP
// the text equals a LocalQuerier rendering, and the batch slices back to
// exactly what rendering every panel alone gives.
func TestRenderDashboardBatchesPanels(t *testing.T) {
	store, job := seedStore(t)
	local := tsdb.LocalQuerier{Store: store}
	agent := &Agent{Querier: local, Database: "lms", Evaluator: &analysis.Evaluator{Querier: local, Database: "lms"}}
	d, err := agent.GenerateJobDashboard(job)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := RenderDashboard(ctx, local, "lms", d)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(tsdb.NewHandler(store))
	defer srv.Close()
	cq := &countingQuerier{q: &tsdb.Client{BaseURL: srv.URL, Database: "lms"}}
	got, err := RenderDashboard(ctx, cq, "lms", d)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("remote rendering diverged:\n%s\nlocal:\n%s", got, want)
	}
	targets := 0
	for _, row := range d.Rows {
		for _, p := range row.Panels {
			targets += len(p.Targets)
		}
	}
	if targets < 2 {
		t.Fatalf("dashboard has %d panel targets; the test needs several", targets)
	}
	if fmt.Sprint(cq.calls) != fmt.Sprintf("[1 %d]", targets) {
		t.Fatalf("statements per request %v, want [1 %d]: annotations, then every panel target", cq.calls, targets)
	}

	var alone strings.Builder
	fmt.Fprintf(&alone, "### %s ###\n", d.Title)
	for _, row := range d.Rows {
		fmt.Fprintf(&alone, "\n-- %s --\n", row.Title)
		for _, p := range row.Panels {
			s, err := renderPanels(ctx, local, "lms", []Panel{p})
			if err != nil {
				t.Fatal(err)
			}
			alone.WriteString(s[0])
		}
	}
	rowsOnly, err := RenderDashboard(ctx, local, "lms", &Dashboard{Title: d.Title, Rows: d.Rows})
	if err != nil {
		t.Fatal(err)
	}
	if rowsOnly != alone.String() {
		t.Fatalf("batched panels diverged from panels rendered alone:\n%s\nalone:\n%s", rowsOnly, alone.String())
	}
}

// TestRenderDashboardErrorOrder: a batched rendering fails with the error
// rendering the panels one at a time would meet first.
func TestRenderDashboardErrorOrder(t *testing.T) {
	store, _ := seedStore(t)
	d := &Dashboard{Title: "x", Rows: []Row{{Title: "r", Panels: []Panel{
		{ID: 1, Type: "text", Content: "hello"},
		{ID: 2, Type: "graph", Targets: []Target{{Query: "SELECT percent FROM cpu"}}},
		{ID: 3, Type: "graph", Targets: []Target{{Query: "NOT A QUERY"}}},
		{ID: 4, Type: "piechart"},
	}}}}
	ctx := context.Background()
	cq := &countingQuerier{q: tsdb.LocalQuerier{Store: store}}
	_, err := RenderDashboard(ctx, cq, "lms", d)
	if err == nil || !strings.HasPrefix(err.Error(), "dashboard: panel 3: ") {
		t.Fatalf("unparsable target reported as %v", err)
	}
	if fmt.Sprint(cq.calls) != "[1]" {
		t.Fatalf("statements per request %v, want only panel 2's target", cq.calls)
	}
	// Panel 2's statement fails first when its database is missing.
	_, err = RenderDashboard(ctx, cq, "ghostdb", d)
	if err == nil || !strings.HasPrefix(err.Error(), "dashboard: panel 2: ") {
		t.Fatalf("statement error reported as %v", err)
	}
	d.Rows[0].Panels[2].Targets = nil
	_, err = RenderDashboard(ctx, cq, "lms", d)
	if err == nil || err.Error() != `dashboard: panel 4 has unknown type "piechart"` {
		t.Fatalf("unknown panel type reported as %v", err)
	}
}
