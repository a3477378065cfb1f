package cluster

// Batched routing (DESIGN.md §12): the measurement-scoped statements of
// one request travel as one sub-request per owner replica, and a
// statement whose group failed moves on to its next owner alone. The
// answers stay byte-identical to a single node; the failover count and
// the per-group spans show the grouping.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lineproto"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// scrapeValue reads one unlabelled sample from a Prometheus text scrape.
func scrapeValue(t *testing.T, scrape, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("scrape has no %s:\n%s", name, scrape)
	return 0
}

// stripExplain drops the EXPLAIN ANALYZE profile series, whose timings
// differ from run to run, leaving the SELECT's own rows.
func stripExplain(resp tsdb.Response) tsdb.Response {
	out := tsdb.Response{Results: make([]tsdb.ExecResult, len(resp.Results))}
	for i, res := range resp.Results {
		var kept []tsdb.ResultSeries
		for _, s := range res.Series {
			if !strings.HasPrefix(s.Name, tsdb.ExplainSeriesName) {
				kept = append(kept, s)
			}
		}
		res.Series = kept
		out.Results[i] = res
	}
	return out
}

// TestClusterBatchedRouting sends one request that mixes SELECTs on
// measurements with different first owners, a fanned SHOW MEASUREMENTS,
// a scoped SHOW and an EXPLAIN ANALYZE. The answer must match the
// single-node oracle byte for byte with every node up and with one owner
// down; the healthy run sends one sub-request per first owner, and the
// degraded run fails over exactly the statements that owner was to answer.
func TestClusterBatchedRouting(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	reg := obs.NewRegistry()
	h.coord.RegisterMetrics(reg)
	ctx := context.Background()

	// Eight more measurements spread the first owners over the ring.
	var extra []lineproto.Point
	for m := 0; m < 8; m++ {
		extra = append(extra, testPoints(fmt.Sprintf("m%d", m), fmt.Sprintf("h%d", m%2+1), 20)...)
	}
	if err := h.oracle.DB("lms").WriteBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := h.coord.SinkFor("lms").WritePoints(extra); err != nil {
		t.Fatal(err)
	}

	stmts := []string{
		"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
		"SHOW MEASUREMENTS",
		"SELECT text FROM events WHERE jobid = '42'",
		"SHOW TAG VALUES FROM cpu WITH KEY = hostname",
		"EXPLAIN ANALYZE SELECT sum(dp_mflop_s) FROM likwid_mem_dp GROUP BY time(20s)",
		"SELECT value FROM ghost_measurement",
	}
	routed := []string{"cpu", "events", "cpu", "ghost_measurement"}
	for m := 0; m < 8; m++ {
		stmts = append(stmts, fmt.Sprintf("SELECT max(value) FROM m%d GROUP BY hostname", m))
		routed = append(routed, fmt.Sprintf("m%d", m))
	}
	firstOwners := map[string]int{}
	for _, m := range routed {
		firstOwners[h.coord.owners("lms", m)[0]]++
	}
	if len(firstOwners) < 2 {
		t.Fatalf("routed statements share one first owner %v; the test needs several", firstOwners)
	}
	req := tsdb.Request{Database: "lms", RawQuery: strings.Join(stmts, "; ")}
	want, err := tsdb.LocalQuerier{Store: h.oracle}.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := mustJSON(t, stripExplain(want))

	run := func(label string) []obs.SpanData {
		t.Helper()
		ring := obs.NewTraceRing(4)
		tr := ring.StartTrace("coordinator.query", "")
		got, err := h.coord.Querier().Query(obs.WithTrace(ctx, tr), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tr.Finish()
		if gotJSON := mustJSON(t, stripExplain(got)); gotJSON != wantJSON {
			t.Fatalf("%s: batched answer diverged:\n cluster: %s\n oracle:  %s", label, gotJSON, wantJSON)
		}
		if n := len(got.Results[4].Series) - len(stripExplain(got).Results[4].Series); n != 2 {
			t.Fatalf("%s: EXPLAIN ANALYZE carries %d profile series, want storage + routing", label, n)
		}
		d, ok := ring.Find(tr.ID())
		if !ok {
			t.Fatalf("%s: trace not recorded", label)
		}
		var nodes []obs.SpanData
		for _, sp := range d.Spans {
			if sp.Name == "cluster.query.node" {
				nodes = append(nodes, sp)
			}
		}
		return nodes
	}
	failovers := func() float64 {
		var sb strings.Builder
		reg.Render(&sb)
		return scrapeValue(t, sb.String(), "lms_cluster_read_failovers_total")
	}

	// Healthy: one group span per first owner, plus the EXPLAIN's own
	// group of one, every statement answered by its first owner.
	before := failovers()
	spans := run("healthy")
	if d := failovers() - before; d != 0 {
		t.Fatalf("healthy: %v read failovers", d)
	}
	if len(spans) != len(firstOwners)+1 {
		t.Fatalf("healthy: %d cluster.query.node spans, want %d groups + 1 EXPLAIN: %+v",
			len(spans), len(firstOwners), spans)
	}
	perPeer := map[string]int{}
	for _, sp := range spans {
		n, err := strconv.Atoi(sp.Attr("statements"))
		if err != nil || sp.Attr("status") != "ok" {
			t.Fatalf("healthy: span %+v", sp)
		}
		perPeer[sp.Attr("peer")] += n
	}
	perPeer[h.coord.owners("lms", "likwid_mem_dp")[0]]-- // the EXPLAIN
	for id, n := range firstOwners {
		if perPeer[id] != n {
			t.Fatalf("healthy: peer %s answered %d statements, want %d (spans %+v)", id, perPeer[id], n, spans)
		}
	}

	// One owner down: exactly its statements fail over, each on its own.
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)
	moved := firstOwners[victim]
	if h.coord.owners("lms", "likwid_mem_dp")[0] == victim {
		moved++
	}
	before = failovers()
	spans = run("owner down")
	if d := failovers() - before; d != float64(moved) {
		t.Fatalf("owner down: %v read failovers, want %d", d, moved)
	}
	failed := 0
	for _, sp := range spans {
		if sp.Attr("peer") == victim {
			if sp.Attr("status") == "ok" {
				t.Fatalf("owner down: dead peer answered: %+v", sp)
			}
			n, _ := strconv.Atoi(sp.Attr("statements"))
			failed += n
		}
	}
	if failed != moved {
		t.Fatalf("owner down: dead peer was sent %d statements, want %d", failed, moved)
	}

	// A node's own coordinated /query door batches the same way.
	var door string
	for _, url := range h.peers {
		if url != victim {
			door = url
		}
	}
	got, err := (&tsdb.Client{BaseURL: door, Database: "lms"}).Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := mustJSON(t, stripExplain(got)); gotJSON != wantJSON {
		t.Fatalf("node door with owner down diverged:\n cluster: %s\n oracle:  %s", gotJSON, wantJSON)
	}
}

// TestClusterReplicaByteBudgetShedsReplicatedWrite: a replicated write
// carries its Content-Length, so a replica's in-flight byte budget
// (lms-db -max-inflight-mb) sheds an over-budget sub-batch with 429
// instead of counting it as an empty body.
func TestClusterReplicaByteBudgetShedsReplicatedWrite(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 2})
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].handler.SetAdmission(0, 256)

	err := h.coord.SinkFor("lms").WritePoints(testPoints("cpu", "h1", 50))
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("over-budget replicated write: %v, want a 429 below write quorum", err)
	}
	resp, err := http.Get(victim + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if shed := scrapeValue(t, string(body), "lms_http_requests_shed_total"); shed != 1 {
		t.Fatalf("replica shed %v writes, want 1", shed)
	}
	// A sub-batch within budget is still admitted.
	if err := h.coord.SinkFor("lms").WritePoints(testPoints("cpu", "h1", 1)); err != nil {
		t.Fatalf("small replicated write: %v", err)
	}
}
