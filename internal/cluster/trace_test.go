package cluster

// Distributed tracing across the ring (DESIGN.md §14): one trace id
// started at the coordinator must reappear, spans and all, in the ring
// of every replica the request touched — the X-Lms-Trace header is the
// only thread connecting them. The same harness pins the clustered
// EXPLAIN ANALYZE contract: routing profile appended, SELECT rows
// byte-identical.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/tsdb"
)

// traceRings installs one trace ring per node and returns them by peer
// URL.
func traceRings(h *harness) map[string]*obs.TraceRing {
	rings := map[string]*obs.TraceRing{}
	for url, tn := range h.nodes {
		ring := obs.NewTraceRing(16)
		tn.store.SetTraces(ring)
		rings[url] = ring
	}
	return rings
}

func spanNames(d obs.TraceData) map[string]obs.SpanData {
	out := map[string]obs.SpanData{}
	for _, sp := range d.Spans {
		out[sp.Name] = sp
	}
	return out
}

// TestClusterQueryTracePropagation: a routed query traced at the
// coordinator records the fan-out span naming the chosen replica, and
// that replica's own ring holds the same trace id with its handler and
// engine spans — the end-to-end coordinator→replica trace.
func TestClusterQueryTracePropagation(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	rings := traceRings(h)

	coordRing := obs.NewTraceRing(16)
	tr := coordRing.StartTrace("coordinator.query", "")
	ctx := obs.WithTrace(context.Background(), tr)
	rsp, err := h.coord.Querier().Query(ctx, tsdb.Request{
		Database: "lms", RawQuery: "SELECT mean(value) FROM cpu GROUP BY hostname",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Err() != nil {
		t.Fatal(rsp.Err())
	}
	tr.Finish()

	d, ok := coordRing.Find(tr.ID())
	if !ok {
		t.Fatal("coordinator trace not recorded")
	}
	names := spanNames(d)
	if _, ok := names["cluster.query"]; !ok {
		t.Fatalf("missing cluster.query span: %+v", d.Spans)
	}
	node, ok := names["cluster.query.node"]
	if !ok {
		t.Fatalf("missing cluster.query.node span: %+v", d.Spans)
	}
	chosen := node.Attr("peer")
	if rings[chosen] == nil {
		t.Fatalf("chosen replica %q is not a cluster member", chosen)
	}
	if node.Attr("error") != "" {
		t.Fatalf("healthy query recorded error: %+v", node)
	}

	// The replica continued the same trace id in its own ring.
	rd, ok := rings[chosen].Find(tr.ID())
	if !ok {
		t.Fatalf("replica %s has no trace %s", chosen, tr.ID())
	}
	rnames := spanNames(rd)
	for _, want := range []string{"tsdb.http.query", "tsdb.select"} {
		if _, ok := rnames[want]; !ok {
			t.Fatalf("replica trace missing %q: %+v", want, rd.Spans)
		}
	}
	// No other node executed the routed statement.
	for url, ring := range rings {
		if url == chosen {
			continue
		}
		if _, ok := ring.Find(tr.ID()); ok {
			t.Fatalf("non-chosen replica %s also traced the query", url)
		}
	}
}

// TestClusterWriteTraceFanout: a traced replicated write records one
// cluster.write.node span per owner, and each owner's ring carries the
// same trace id down through the storage engine. With an owner down the
// hinted-handoff parking shows up as a cluster.hint.enqueue span.
func TestClusterWriteTraceFanout(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1, HintsDir: t.TempDir(), DrainInterval: time.Hour})
	h.seed(t)
	rings := traceRings(h)
	sink, ok := h.coord.SinkFor("lms").(router.ContextSink)
	if !ok {
		t.Fatal("cluster sink does not implement router.ContextSink")
	}

	coordRing := obs.NewTraceRing(16)
	tr := coordRing.StartTrace("coordinator.write", "")
	ctx := obs.WithTrace(context.Background(), tr)
	if err := sink.WritePointsContext(ctx, testPoints("traced_m", "h1", 3)); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	d, ok := coordRing.Find(tr.ID())
	if !ok {
		t.Fatal("write trace not recorded")
	}
	if _, ok := spanNames(d)["cluster.write"]; !ok {
		t.Fatalf("missing cluster.write span: %+v", d.Spans)
	}
	owners := map[string]bool{}
	for _, id := range h.coord.owners("lms", "traced_m") {
		owners[id] = true
	}
	var fanout []string
	for _, sp := range d.Spans {
		if sp.Name == "cluster.write.node" {
			fanout = append(fanout, sp.Attr("peer"))
			if !owners[sp.Attr("peer")] {
				t.Fatalf("fan-out span names non-owner %q (owners %v)", sp.Attr("peer"), owners)
			}
			if sp.Attr("points") != "3" {
				t.Fatalf("fan-out span points attr %q", sp.Attr("points"))
			}
		}
	}
	if len(fanout) != 2 {
		t.Fatalf("want one fan-out span per owner (R=2), got %v", fanout)
	}
	// Each owner continued the trace across the wire into its engine.
	for _, url := range fanout {
		rd, ok := rings[url].Find(tr.ID())
		if !ok {
			t.Fatalf("owner %s has no trace %s", url, tr.ID())
		}
		rnames := spanNames(rd)
		for _, want := range []string{"tsdb.http.write", "tsdb.apply"} {
			if _, ok := rnames[want]; !ok {
				t.Fatalf("owner trace missing %q: %+v", want, rd.Spans)
			}
		}
	}

	// Outage: the parked share appears as a hint span naming the victim.
	victim := h.coord.owners("lms", "traced_m")[0]
	h.nodes[victim].down.Store(true)
	tr2 := coordRing.StartTrace("coordinator.write", "")
	if err := sink.WritePointsContext(obs.WithTrace(context.Background(), tr2), testPoints("traced_m", "h1", 2)); err != nil {
		t.Fatal(err)
	}
	tr2.Finish()
	d2, ok := coordRing.Find(tr2.ID())
	if !ok {
		t.Fatal("outage write trace not recorded")
	}
	var hinted, errored bool
	for _, sp := range d2.Spans {
		switch sp.Name {
		case "cluster.hint.enqueue":
			hinted = sp.Attr("peer") == victim && sp.Attr("error") == ""
		case "cluster.write.node":
			if sp.Attr("peer") == victim && sp.Attr("error") != "" {
				errored = true
			}
		}
	}
	if !hinted || !errored {
		t.Fatalf("outage trace missing hint/error spans (hinted=%v errored=%v): %+v", hinted, errored, d2.Spans)
	}
}

// TestClusterExplainAnalyze is 3-node acceptance: EXPLAIN ANALYZE through
// the coordinator returns the SELECT's rows byte-identical to the
// single-node oracle once the explain_analyze* series are stripped, and
// the appended routing profile names a real replica.
func TestClusterExplainAnalyze(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	ctx := context.Background()
	oracle := tsdb.LocalQuerier{Store: h.oracle}

	for _, sel := range []string{
		"SELECT mean(value) FROM cpu GROUP BY time(10s), hostname",
		"SELECT * FROM cpu",
		"SELECT value FROM ghost_measurement",
	} {
		want, err := oracle.Query(ctx, tsdb.Request{Database: "lms", RawQuery: sel, Epoch: "ns"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.coord.Querier().Query(ctx, tsdb.Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE " + sel, Epoch: "ns"})
		if err != nil {
			t.Fatal(err)
		}
		if got.Err() != nil {
			t.Fatal(got.Err())
		}

		var kept, profiles []tsdb.ResultSeries
		for _, s := range got.Results[0].Series {
			if strings.HasPrefix(s.Name, tsdb.ExplainSeriesName) {
				profiles = append(profiles, s)
				continue
			}
			kept = append(kept, s)
		}
		stripped := got
		stripped.Results = []tsdb.ExecResult{got.Results[0]}
		stripped.Results[0].Series = kept

		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(stripped)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%q: clustered EXPLAIN ANALYZE changed the rows:\n got: %s\nwant: %s", sel, gotJSON, wantJSON)
		}

		// Two profiles: the replica's storage profile and the
		// coordinator's routing profile.
		if len(profiles) != 2 {
			t.Fatalf("%q: want storage + routing profiles, got %+v", sel, profiles)
		}
		var routing *tsdb.ResultSeries
		for i := range profiles {
			if profiles[i].Name == tsdb.ExplainClusterSeriesName {
				routing = &profiles[i]
			}
		}
		if routing == nil {
			t.Fatalf("%q: no %s series", sel, tsdb.ExplainClusterSeriesName)
		}
		vals := map[string]interface{}{}
		for _, row := range routing.Values {
			vals[row[0].(string)] = row[1]
		}
		chosen, _ := vals["chosen_replica"].(string)
		if h.nodes[chosen] == nil {
			t.Fatalf("%q: chosen_replica %q not a cluster member (profile %v)", sel, chosen, vals)
		}
		if vals["replication"] != 2.0 && vals["replication"] != 2 {
			t.Fatalf("%q: replication %v", sel, vals["replication"])
		}
	}
}

// TestClusterExplainAnalyzeFailover: with the first-choice replica down
// the routing profile records the failed attempt and the failover target
// that answered.
func TestClusterExplainAnalyzeFailover(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	victim := h.coord.owners("lms", "cpu")[0]
	h.nodes[victim].down.Store(true)

	got, err := h.coord.Querier().Query(context.Background(),
		tsdb.Request{Database: "lms", RawQuery: "EXPLAIN ANALYZE SELECT mean(value) FROM cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Err() != nil {
		t.Fatal(got.Err())
	}
	var routing *tsdb.ResultSeries
	for i, s := range got.Results[0].Series {
		if s.Name == tsdb.ExplainClusterSeriesName {
			routing = &got.Results[0].Series[i]
		}
	}
	if routing == nil {
		t.Fatal("no routing profile")
	}
	vals := map[string]interface{}{}
	for _, row := range routing.Values {
		vals[row[0].(string)] = row[1]
	}
	if vals["attempts"] != 2 && vals["attempts"] != 2.0 {
		t.Fatalf("attempts %v (profile %v)", vals["attempts"], vals)
	}
	if chosen, _ := vals["chosen_replica"].(string); chosen == victim || h.nodes[chosen] == nil {
		t.Fatalf("chosen_replica %q after killing %q", chosen, victim)
	}
	if status, _ := vals["attempt_1_status"].(string); status == "ok" {
		t.Fatalf("dead first attempt reported ok: %v", vals)
	}
}

// TestClusterExplainAnalyzeUntraced: with tracing off on the coordinating
// node, EXPLAIN ANALYZE records into a private trace — the routing
// profile still names the chosen replica and every attempt — and nothing
// reaches the coordinator's ring or leaves it as a trace id.
func TestClusterExplainAnalyzeUntraced(t *testing.T) {
	h := newHarness(t, Config{Replication: 2, WriteQuorum: 1})
	h.seed(t)
	rings := traceRings(h)
	// Coordinate on the one node that owns no cpu replica, so the
	// statement crosses the wire to a replica.
	owners := map[string]bool{}
	for _, id := range h.coord.owners("lms", "cpu") {
		owners[id] = true
	}
	var coord string
	for _, url := range h.peers {
		if !owners[url] {
			coord = url
		}
	}
	rings[coord].SetEnabled(false)

	client := &tsdb.Client{BaseURL: coord, Database: "lms"}
	got, err := client.Query(context.Background(), tsdb.Request{RawQuery: "EXPLAIN ANALYZE SELECT mean(value) FROM cpu GROUP BY hostname"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Err() != nil {
		t.Fatal(got.Err())
	}
	var routing *tsdb.ResultSeries
	for i, s := range got.Results[0].Series {
		if s.Name == tsdb.ExplainClusterSeriesName {
			routing = &got.Results[0].Series[i]
		}
	}
	if routing == nil {
		t.Fatalf("no routing profile: %+v", got.Results[0].Series)
	}
	vals := map[string]interface{}{}
	for _, row := range routing.Values {
		vals[row[0].(string)] = row[1]
	}
	chosen, _ := vals["chosen_replica"].(string)
	if h.nodes[chosen] == nil {
		t.Fatalf("chosen_replica %q not a cluster member (profile %v)", chosen, vals)
	}
	if vals["attempt_1_node"] != chosen || vals["attempt_1_status"] != "ok" {
		t.Fatalf("attempt rows %v", vals)
	}
	if ns, _ := tsdb.FloatValue(vals["attempt_1_ns"]); ns <= 0 {
		t.Fatalf("attempt_1_ns %v", vals["attempt_1_ns"])
	}
	if n := len(rings[coord].Snapshot(0, 0)); n != 0 {
		t.Fatalf("coordinator recorded %d traces with tracing off", n)
	}
	// The replica got no upstream id, so it traced the request under an
	// id of its own.
	served := rings[chosen].Snapshot(0, 0)
	if len(served) != 1 || served[0].ID == "" || served[0].Name != "tsdb.query" {
		t.Fatalf("chosen replica traces %+v", served)
	}
}
