package main

// Metric assembly: the end-to-end metrics of the JSON line, the same
// numbers under each workload's user-facing names, and the per-layer
// breakdown.

import (
	"fmt"
	"strings"
)

// primary is the log of the workload's closed-loop operation: agent
// payloads, job views, or dashboard refreshes.
func (r *runner) primary() *opLog {
	if r.p.workload == "agent-ingest" {
		return &r.ingest
	}
	return &r.views
}

// storedPoints is the resident points of all databases on all nodes.
func storedPoints(s scrapeSet) float64 { return s.nodeSum("lms_db_points") }

// windowStat is the median over the windows of one log's per-window
// latency summaries.
type windowStat struct {
	n           int
	wins        []int     // the windows with samples
	p50s, tails []float64 // per window in wins
	p50, tail   float64   // medians over the windows
	tailP       float64   // highest tail percentile a window used
}

// windowed summarizes each window's latencies separately; a window's tail
// is p99 when that window has at least 1000 samples, else p90.
func windowed(lat []float64, ends []int) windowStat {
	w := windowStat{n: len(lat)}
	start := 0
	for i, end := range ends {
		if end > start {
			s := summarize(lat[start:end])
			w.wins = append(w.wins, i)
			w.p50s, w.tails = append(w.p50s, s.p50), append(w.tails, s.tail)
			w.tailP = max(w.tailP, s.tailP)
		}
		start = end
	}
	w.p50, w.tail = median(w.p50s), median(w.tails)
	return w
}

// scaled returns w with each window's latencies scaled to the reference
// machine speed (calib.go).
func (w windowStat) scaled(slowness []float64) windowStat {
	s := w
	s.p50s, s.tails = make([]float64, len(w.wins)), make([]float64, len(w.wins))
	for j, i := range w.wins {
		s.p50s[j], s.tails[j] = w.p50s[j]/slowness[i], w.tails[j]/slowness[i]
	}
	s.p50, s.tail = median(s.p50s), median(s.tails)
	return s
}

// scaleRates scales per-window rates to the reference machine speed: a
// window on a machine slower by a factor s would have run s times faster
// there.
func scaleRates(xs, slowness []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * slowness[i]
	}
	return out
}

// scaleTimes scales per-window durations to the reference machine speed.
func scaleTimes(xs, slowness []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / slowness[i]
	}
	return out
}

func (w windowStat) note() string {
	return fmt.Sprintf("median of windows: p50 %.4g, p%.0f %.4g", w.p50s, w.tailP, w.tails)
}

// endToEnd returns the metrics of the JSON line.
func endToEnd(r *runner) []metric {
	prim, ends := r.primary(), r.viewEnds
	if prim == &r.ingest {
		ends = r.ingestEnds
	}
	op := windowed(prim.lat, ends).scaled(r.slowness)
	after := r.measured.after
	pts := storedPoints(after)
	rates, setups := scaleRates(r.rates, r.slowness), scaleTimes(r.setupS, r.slowness)
	return []metric{
		{name: "ops_per_s", value: median(rates), unit: "1/s", n: len(prim.lat), note: fmt.Sprintf("median of windows %.4g; unscaled %.4g", rates, r.rates)},
		{name: "op_p50_ms", value: op.p50, unit: "ms", n: op.n, note: op.note()},
		{name: "op_tail_ms", value: op.tail, unit: "ms", n: op.n, note: op.note()},
		{name: "resident_bytes_per_point", value: after.nodeSum("lms_db_resident_bytes") / pts, unit: "B", n: int(pts)},
		{name: "disk_bytes_per_point", value: float64(r.measured.dAfter) / pts, unit: "B", n: int(pts)},
		{name: "setup_s", value: median(setups), unit: "s", n: len(r.setupS), note: fmt.Sprintf("median of set-ups %.4g; unscaled %.4g", setups, r.setupS)},
	}
}

// userMetrics repeats the throughput and latency numbers under the names
// the workload's users read them by.
func userMetrics(r *runner) []metric {
	in, vw := windowed(r.ingest.lat, r.ingestEnds).scaled(r.slowness), windowed(r.views.lat, r.viewEnds).scaled(r.slowness)
	p50 := func(name string, w windowStat) metric {
		return metric{name: name, value: w.p50, unit: "ms", n: w.n, note: w.note()}
	}
	tail := func(prefix string, w windowStat) metric {
		return metric{name: fmt.Sprintf("%s_p%.0f_ms", prefix, w.tailP), value: w.tail, unit: "ms", n: w.n, note: w.note()}
	}
	switch r.p.workload {
	case "agent-ingest":
		return []metric{
			{name: "ingest_points_per_s", value: median(scaleRates(r.pointRates, r.slowness)), unit: "points/s", n: in.n},
			p50("ingest_p50_ms", in), tail("ingest", in),
		}
	case "job-analysis":
		return []metric{
			{name: "job_views_per_s", value: median(scaleRates(r.rates, r.slowness)), unit: "views/s", n: vw.n},
			p50("job_view_p50_ms", vw), tail("job_view", vw),
		}
	default:
		return []metric{
			p50("ingest_p50_ms", in), tail("ingest", in),
			p50("refresh_p50_ms", vw), tail("refresh", vw),
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics returns the per-layer metrics of r. Counter metrics come
// from /metrics deltas and process counters, taken in every run; span
// metrics need r's recorder. untraced and off are the shipped-tracing and
// tracing-off runs the overheads compare against (nil outside the traced
// run).
func layerMetrics(r, untraced, off *runner) []metric {
	ing, vw, meas := r.ingestPh, r.viewPh, r.measured
	payloads, points, views := float64(ing.payloads), float64(ing.points), float64(vw.views)
	ingNote := "last measured window"
	if r.p.workload == "job-analysis" {
		ingNote = fmt.Sprintf("history replay in set-up; one operation = one %d-host batch", analysisBatch)
	}
	viewNote := "last measured window"
	if r.p.workload == "agent-ingest" {
		viewNote = "checked job views after the last measured window"
	}
	pts := storedPoints(meas.after)
	hits := delta(vw.before, vw.after, "lms_db_query_cache_hits_total")
	misses := delta(vw.before, vw.after, "lms_db_query_cache_misses_total")
	cpu := func(ph *phase) float64 { return float64(ph.pAfter.cpu - ph.pBefore.cpu) }
	out := []metric{}
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name: name, value: v, unit: unit, note: note})
	}
	var bi, bv *breakdown
	if r.rec != nil {
		b := analyzeSpans(r.rec)
		bi, bv = b[kindIngest], b[kindView]
		add("router.self_us", bi.perOp(layerRouter, 1e3), "us", ingNote)
		add("router.sink_writes_per_payload", ratio(float64(bi.count[layerClusterWrite]), payloads), "count", ingNote)
		add("cluster.write.self_us", bi.perOp(layerClusterWrite, 1e3), "us", ingNote)
	}
	add("cluster.write.replica_requests_per_payload",
		ratio(routerDelta(ing.before, ing.after, "lms_cluster_replicated_batches_total", `status="ok"`), payloads), "count", ingNote)
	add("cluster.write.replicated_points_per_point",
		ratio(routerDelta(ing.before, ing.after, "lms_cluster_replicated_points_total", `status="ok"`), points), "count", ingNote)
	if r.rec != nil {
		add("tsdb.write.self_us", bi.perOp(layerTSDBWrite, 1e3), "us", ingNote)
		add("tsdb.write.us_per_request", bi.meanDur(layerTSDBWrite, 1e3), "us", ingNote)
	}
	add("tsdb.write.points_per_request", ratio(delta(ing.before, ing.after, "lms_ingest_points_total"),
		delta(ing.before, ing.after, "lms_ingest_batches_total")), "count", ingNote)
	add("durable.fsyncs_per_payload", ratio(delta(ing.before, ing.after, "lms_wal_fsync_seconds_count"), payloads), "count", ingNote)
	add("durable.fsync_ms_per_payload", ratio(1e3*delta(ing.before, ing.after, "lms_wal_fsync_seconds_sum"), payloads), "ms", ingNote)
	add("durable.wal_bytes_per_point", ratio(float64(ing.dAfter-ing.dBefore), points), "B", ingNote)
	add("durable.checkpoints", delta(ing.before, ing.after, "lms_checkpoints_total"), "count", ingNote)
	if r.rec != nil {
		add("dashboard.self_ms_per_view", bv.perOp(layerDashboard, 1e6), "ms", viewNote)
		add("analysis.self_ms_per_view", bv.perOp(layerAnalysis, 1e6), "ms", viewNote)
		add("tsdb.client.self_ms_per_view", bv.perOp(layerClient, 1e6), "ms", viewNote)
		add("tsdb.client.requests_per_op", bv.spansPerOp(layerClient), "count", viewNote)
		add("tsdb.client.us_per_request", bv.meanDur(layerClient, 1e3), "us", viewNote)
		add("cluster.query.self_us", ratio(float64(bv.coordNS)/1e3, float64(bv.count[layerClusterQuery])), "us", viewNote)
		add("cluster.query.self_ms_per_view", bv.perOp(layerClusterQuery, 1e6), "ms", viewNote)
		add("cluster.query.remote_share", bv.remoteShare(), "ratio", viewNote)
		add("tsdb.query.self_ms_per_view", bv.perOp(layerTSDBQuery, 1e6), "ms", viewNote)
		add("tsdb.query.us_per_request", bv.meanDur(layerTSDBQuery, 1e3), "us", viewNote)
		add("tsdb.query.response_bytes", bv.meanBytes(layerTSDBQuery), "B", viewNote)
		add("view.unattributed_ms", bv.perOp(layerOp, 1e6), "ms", viewNote)
	}
	add("tsdb.cache.hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%s; base %.0f lookups", viewNote, hits+misses))
	if r.rec != nil {
		pe, cd, n := explainPerOp(r.rec, opsOfKind(r.rec, kindView))
		note := fmt.Sprintf("%s; EXPLAIN ANALYZE of %d sampled views", viewNote, n)
		add("tsdb.select.points_examined_per_op", pe, "count", note)
		add("tsdb.select.chunks_decoded_per_op", cd, "count", note)
	}
	for _, state := range []string{"building", "sealed", "compressed"} {
		add("tsdb.resident_bytes."+state, ratio(meas.after.nodeSum("lms_db_resident_bytes", `state="`+state+`"`), pts), "B", "per stored point after the last measured window")
	}
	add("cluster.hints_pending", float64(r.hintsPending), "count", "after the last window")
	add("cluster.read_failovers", delta(meas.before, meas.after, "lms_cluster_read_failovers_total"), "count", "last measured window")
	add("process.cpu_us_per_point", ratio(cpu(ing)/1e3, points), "us", ingNote)
	add("process.allocs_per_point", ratio(float64(ing.pAfter.mallocs-ing.pBefore.mallocs), points), "count", ingNote)
	add("process.alloc_bytes_per_point", ratio(float64(ing.pAfter.allocBytes-ing.pBefore.allocBytes), points), "B", ingNote)
	add("process.cpu_ms_per_view", ratio(cpu(vw)/1e6, views), "ms", viewNote)
	add("process.allocs_per_view", ratio(float64(vw.pAfter.mallocs-vw.pBefore.mallocs), views), "count", viewNote)
	add("process.gc_cpu_share", ratio(meas.pAfter.gcCPU-meas.pBefore.gcCPU, meas.pAfter.totalCPU-meas.pBefore.totalCPU), "ratio", "last measured window")
	if untraced != nil {
		thr := func(x *runner) float64 { return median(scaleRates(x.rates, x.slowness)) }
		add("obs.bench_trace_overhead_pct", 100*(thr(untraced)-thr(r))/thr(untraced), "%", "ops_per_s untraced vs traced run, single runs")
		add("obs.default_tracing_cost_pct", 100*(thr(off)-thr(untraced))/thr(off), "%", "ops_per_s with -traces 0 vs the shipped -traces 256, single runs")
	}
	return out
}

// workloadMetrics are the per-layer metrics only some workloads have, and
// the machine's calibration; they are printed, not part of the JSON line.
func workloadMetrics(r *runner) []metric {
	pts := storedPoints(r.measured.after)
	cpu, disk := make([]float64, len(r.speeds)), make([]float64, len(r.speeds))
	for i, s := range r.speeds {
		cpu[i], disk[i] = s.cpu, s.disk
	}
	out := []metric{
		{name: "durable.recovery_ms", absent: true, note: "only job-analysis restarts the stack"},
		{name: "durable.checkpoint_bytes_per_point", absent: true, note: "only job-analysis restarts the stack"},
		{name: "gen.late_p99_ms", absent: true, note: "only live-dashboards runs an open loop"},
		{name: "machine.slowness", value: median(r.slowness), unit: "ratio", n: len(r.slowness),
			note: fmt.Sprintf("per window %.4g; end-to-end timings are scaled by it (calib.go)", r.slowness)},
		{name: "machine.cpu_slowness", value: median(cpu), unit: "ratio", n: len(cpu),
			note: fmt.Sprintf("CPU round time / %gs, per window %.4g", cpuRef, cpu)},
		{name: "machine.disk_slowness", value: median(disk), unit: "ratio", n: len(disk),
			note: fmt.Sprintf("mean fsync latency / %gs, per window %.4g", diskRef, disk)},
	}
	switch r.p.workload {
	case "job-analysis":
		out[0] = metric{name: "durable.recovery_ms", value: msOf(r.recovery), unit: "ms", note: "reopen of the three stores, last window"}
		out[1] = metric{name: "durable.checkpoint_bytes_per_point", value: ratio(float64(r.ckptBytes), pts), unit: "B", note: "checkpoint files after the restart"}
	case "live-dashboards":
		lt := windowed(r.ingest.late, r.ingestEnds)
		out[2] = metric{name: fmt.Sprintf("gen.late_p%.0f_ms", lt.tailP), value: lt.tail, unit: "ms", n: lt.n, note: "open-loop generator lateness; " + lt.note()}
	}
	return out
}

// spanSums prints, per operation kind, the traced latency beside the sum
// of its layers' self times and the unattributed remainder.
func spanSums(r *runner) []metric {
	var out []metric
	for kind, b := range analyzeSpans(r.rec) {
		var sum int64
		var parts []string
		for _, l := range sortedKeys(b.self) {
			sum += b.self[l]
			parts = append(parts, fmt.Sprintf("%s=%.1fus", l, float64(b.self[l])/float64(b.ops)/1e3))
		}
		out = append(out, metric{
			name: kind + ".traced_latency_us", value: float64(b.opNS) / float64(b.ops) / 1e3, unit: "us", n: b.ops,
			note: fmt.Sprintf("layers+unattributed=%.1fus: %s", float64(sum)/float64(b.ops)/1e3, strings.Join(parts, " ")),
		})
	}
	return out
}
