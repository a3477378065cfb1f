package main

// Output checks, run after the measured phase and outside any timing.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/router"
	"repro/internal/tsdb"
)

// expectedCounts returns the points every database must hold per
// measurement: all acknowledged payload lines in the primary database
// (plus one events row per job signal), and each job line again in its
// owner's database.
func (r *runner) expectedCounts() map[string]map[string]int {
	want := map[string]map[string]int{primaryDB: {}}
	addPayload := func(p *payload) {
		for i, c := range p.lines {
			if c == 0 {
				continue
			}
			want[primaryDB][measurements[i]] += int(c)
			if p.user != "" {
				db := "user_" + p.user
				if want[db] == nil {
					want[db] = map[string]int{}
				}
				want[db][measurements[i]] += int(c)
			}
		}
	}
	for _, ev := range r.p.setupEvents {
		if ev.start != nil || ev.end != "" {
			want[primaryDB]["events"]++
		}
		for _, p := range ev.payloads {
			addPayload(p)
		}
	}
	for _, p := range r.acked {
		addPayload(p)
	}
	return want
}

// checkCounts compares count() through the coordinator with the expected
// points of every database and measurement.
func (r *runner) checkCounts(ctx context.Context, q tsdb.Querier) {
	want := r.expectedCounts()
	for _, db := range sortedKeys(want) {
		meas := sortedKeys(want[db])
		stmts := make([]tsdb.Statement, len(meas))
		for i, m := range meas {
			stmts[i] = tsdb.SelectStatement(tsdb.Query{Measurement: m}, tsdb.AggCol{Field: countField[m], Agg: tsdb.AggCount})
		}
		resp, err := q.Query(ctx, tsdb.Request{Database: db, Statements: stmts})
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			r.problem("count query on %s: %v", db, err)
			continue
		}
		for i, m := range meas {
			got := -1.0
			if i < len(resp.Results) && len(resp.Results[i].Series) == 1 && len(resp.Results[i].Series[0].Values) == 1 {
				if row := resp.Results[i].Series[0].Values[0]; len(row) == 2 {
					got, _ = tsdb.FloatValue(row[1])
				}
			}
			if int(got) != want[db][m] {
				r.problem("%s.%s holds %v points, want %d acknowledged", db, m, got, want[db][m])
			}
		}
	}
}

// reference builds a single-node in-memory store seeded through a router
// with local sinks exactly as the cluster was: the same job signals at the
// same clock, the same set-up batches and the acknowledged payloads.
func (r *runner) reference() (*tsdb.Store, error) {
	store := tsdb.NewStore()
	db := store.CreateDatabase(primaryDB)
	var at time.Time
	rt, err := router.New(router.Config{
		Primary: router.LocalSink{DB: db},
		UserSink: func(user string) router.Sink {
			return router.LocalSink{DB: store.CreateDatabase("user_" + user)}
		},
		Now: func() time.Time { return at },
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range r.p.setupEvents {
		at = ev.at
		switch {
		case ev.start != nil:
			err = rt.JobStart(*ev.start)
		case ev.end != "":
			err = rt.JobEnd(ev.end)
		default:
			err = rt.IngestBatch(ev.body)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, p := range r.acked {
		if err := rt.IngestBatch(p.body); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// check runs the output checks of a window; failures are collected as
// problems. The comparison of job views with a single-node reference runs
// on the last window only.
func (r *runner) check(last bool) error {
	ctx := context.Background()
	client := connClient()
	defer client.CloseIdleConnections()
	q := r.coordClient(client)
	r.checkCounts(ctx, q)
	if last {
		if err := r.checkViews(ctx, client, q); err != nil {
			return err
		}
	}
	r.hintsPending = r.st.rclu.PendingHints()
	if r.hintsPending != 0 {
		r.problem("%d hinted-handoff batches pending", r.hintsPending)
	}
	end, err := r.st.scrapeAll()
	if err != nil {
		return err
	}
	if v := end.nodeSum("lms_cluster_read_failovers_total"); v != 0 {
		r.problem("%v read failovers", v)
	}
	for _, name := range []string{"lms_cluster_quorum_failures_total", "lms_router_dropped_points_total"} {
		if v := end.router.sum(name); v != 0 {
			r.problem("router %s = %v", name, v)
		}
	}
	if v := end.nodeSum("lms_dropped_points_total"); v != 0 {
		r.problem("nodes dropped %v points", v)
	}
	if r.p.restart {
		if r.ckptBytes, err = dirBytes(r.st.cfg.dir, ".snap"); err != nil {
			return err
		}
	}
	return nil
}

// checkViews compares sampled job views through the cluster with the same
// views of a single-node reference store, and checks that the IdleBreak
// job is flagged.
func (r *runner) checkViews(ctx context.Context, client *http.Client, q tsdb.Querier) error {
	ref, err := r.reference()
	if err != nil {
		return fmt.Errorf("reference store: %w", err)
	}
	kind, log := "check", (*opLog)(nil)
	jobs := r.checkJobs()
	metas := make([]analysis.JobMeta, len(jobs))
	for i, jb := range jobs {
		metas[i] = jb.meta
		if metas[i].End.IsZero() {
			metas[i].End = r.lastTS
		}
	}
	var ph *phase
	if r.p.workload == "agent-ingest" {
		// Agent ingest has no measured reads: the checked job views are
		// the read phase its per-layer read metrics come from.
		kind, log = kindView, &r.views
		if ph, err = r.beginPhase(); err != nil {
			return err
		}
		r.viewPh = ph
	}
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		got[i], errs[i] = r.timedView(client, kind, metas[i], i == 0, log)
	}
	if ph != nil {
		if err := r.endPhase(ph); err != nil {
			return err
		}
		for _, err := range errs {
			if err == nil {
				ph.views++
			}
		}
	}
	for i, jb := range jobs {
		if errs[i] != nil {
			r.problem("view of job %s through the cluster: %v", jb.id, errs[i])
			continue
		}
		want, err := r.view(ctx, tsdb.LocalQuerier{Store: ref}, metas[i])
		if err != nil {
			r.problem("view of job %s on the reference: %v", jb.id, err)
			continue
		}
		if got[i] != want {
			r.problem("view of job %s differs from the single-node reference (%d vs %d bytes)", jb.id, len(got[i]), len(want))
		}
		if jb.idleBreak {
			memBW, dp := peaks()
			ev := &analysis.Evaluator{Querier: q, Database: primaryDB, PeakMemBWMBs: memBW, PeakDPMFlops: dp}
			rep, err := ev.EvaluateContext(ctx, metas[i])
			if err != nil {
				r.problem("evaluate idle-break job %s: %v", jb.id, err)
			} else if !rep.Pathological() {
				r.problem("idle-break job %s is not flagged pathological", jb.id)
			}
		}
	}

	return nil
}
