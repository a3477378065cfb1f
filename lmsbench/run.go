package main

// One run of a workload against one stack: set-up (timed), the measured
// phase, and the output checks.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/dashboard"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// variant is one stack configuration a run measures.
type variant struct {
	name       string
	traces     int  // the processes' trace rings (shipped default 256, 0 = off)
	benchTrace bool // record the benchmark's own spans
}

// opLog collects one operation type's outcomes.
type opLog struct {
	mu        sync.Mutex
	lat       []float64 // ms of successful operations
	late      []float64 // ms the open-loop generator ran behind schedule
	attempted int
	failed    int
	points    int // ingest: acknowledged points
	payloads  int // ingest: acknowledged agent payloads
	firstErr  error
}

func (l *opLog) add(ms float64, err error, points, payloads int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.lat = append(l.lat, ms)
	l.points += points
	l.payloads += payloads
}

// phase brackets a stretch of the run with counter snapshots.
type phase struct {
	before, after   scrapeSet
	pBefore, pAfter procStats
	dBefore, dAfter int64
	elapsed         time.Duration
	start           time.Time
	// operations completed inside the phase
	payloads, points, views int
}

func (r *runner) beginPhase() (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = r.st.scrapeAll(); err != nil {
		return nil, err
	}
	if ph.dBefore, err = r.st.dataBytes(); err != nil {
		return nil, err
	}
	ph.pBefore = readProc()
	ph.start = time.Now()
	return ph, nil
}

func (r *runner) endPhase(ph *phase) error {
	ph.elapsed = time.Since(ph.start)
	ph.pAfter = readProc()
	var err error
	if ph.after, err = r.st.scrapeAll(); err != nil {
		return err
	}
	ph.dAfter, err = r.st.dataBytes()
	return err
}

// dataRoot holds the stacks' data directories, inside the checkout the
// benchmark runs from.
const dataRoot = ".bench_build/data"

// runner executes one variant of one workload.
type runner struct {
	o     options
	p     *plan
	v     variant
	rec   *recorder
	st    *stack
	clock atomic.Int64 // router clock in unix ns; 0 follows the wall clock

	setupS     []float64
	rates      []float64 // per window: primary operations per second
	pointRates []float64 // per window: acknowledged ingest points per second
	speeds     []speed   // per window: the machine's calibrated speed around it
	slowness   []float64 // per window: the slowness its timings are scaled by (calib.go)
	// per window: the lengths of ingest.lat and views.lat at its end
	ingestEnds, viewEnds []int
	recovery             time.Duration

	ingest           opLog // agent payloads, or the replayed history batches of job-analysis
	views            opLog // job views or dashboard refreshes
	ingestPh, viewPh *phase
	measured         *phase
	acked            []*payload // the window's payloads the router acknowledged
	lastTS           time.Time  // newest acknowledged payload timestamp
	problems         []string
	ckptBytes        int64 // checkpoint files after a restart
	hintsPending     int
}

func (r *runner) now() time.Time {
	if ns := r.clock.Load(); ns != 0 {
		return time.Unix(0, ns).UTC()
	}
	return time.Now()
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run sets the stack up, measures one window of the measured phase and
// checks the outputs, setups times over, each time from a fresh data
// directory. The measured time is split across the windows so that the
// run samples the machine at several moments, not during one stretch.
func (r *runner) run(setups int) error {
	window := time.Duration(r.o.seconds / float64(setups) * float64(time.Second))
	for i := 0; i < setups; i++ {
		if err := r.window(i, window, i == setups-1); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) window(i int, length time.Duration, last bool) error {
	dir := filepath.Join(dataRoot, fmt.Sprintf("%s-%d-%s-%d", r.p.workload, r.o.seed, r.v.name, i))
	removeDir(dir)
	defer removeDir(dir)
	if last && r.v.benchTrace {
		r.rec = newRecorder()
	}
	r.acked, r.lastTS = nil, time.Time{}
	start := time.Now()
	if err := r.setup(dir); err != nil {
		if r.st != nil {
			_ = r.st.close()
		}
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	err := r.measure(length)
	r.ingestEnds = append(r.ingestEnds, len(r.ingest.lat))
	r.viewEnds = append(r.viewEnds, len(r.views.lat))
	if err == nil {
		err = r.check(last)
	}
	if cerr := r.st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return err
}

// setup starts a fresh stack and seeds it. On job-analysis, whose
// measured phase writes nothing, the history replay is the ingest phase
// its ingest metrics come from.
func (r *runner) setup(dir string) error {
	r.clock.Store(0)
	st, err := startStack(stackConfig{dir: dir, traces: r.v.traces, compressAfter: r.p.compressAfter, rec: r.rec, now: r.now})
	if err != nil {
		return err
	}
	r.st = st
	measureReplay := r.p.workload == "job-analysis"
	payloads0, points0 := r.ingest.payloads, r.ingest.points
	if measureReplay {
		if r.ingestPh, err = r.beginPhase(); err != nil {
			return err
		}
	}
	for _, ev := range r.p.setupEvents {
		r.clock.Store(ev.at.UnixNano())
		switch {
		case ev.start != nil:
			err = st.rt.JobStart(*ev.start)
		case ev.end != "":
			err = st.rt.JobEnd(ev.end)
		default:
			err = r.replayBatch(ev, measureReplay)
		}
		if err != nil {
			return err
		}
	}
	r.clock.Store(0)
	if measureReplay {
		if err := r.endPhase(r.ingestPh); err != nil {
			return err
		}
		r.ingestPh.payloads, r.ingestPh.points = r.ingest.payloads-payloads0, r.ingest.points-points0
	}
	if !r.p.restart {
		return nil
	}
	// History arrives faster than it would age: freeze it into compressed
	// chunks, then restart so the nodes serve it recovered from disk.
	for _, n := range st.nodes {
		for _, name := range n.store.Databases() {
			n.store.DB(name).Compress()
		}
	}
	r.recovery, err = st.restart()
	return err
}

// replayBatch ingests one pre-generated batch through the router's
// in-process entry point.
func (r *runner) replayBatch(ev event, record bool) error {
	kind := "setup"
	if record {
		kind = kindIngest
	}
	ctx, id := r.rec.newOp(context.Background(), false)
	start := time.Now()
	err := r.st.rt.IngestBatchContext(ctx, ev.body)
	end := time.Now()
	if record {
		pts := 0
		for _, p := range ev.payloads {
			pts += p.points()
		}
		r.ingest.add(msOf(end.Sub(start)), err, pts, len(ev.payloads))
	}
	if r.rec != nil {
		r.rec.add(span{op: id, layer: layerOp, role: kind, start: r.rec.ns(start), end: r.rec.ns(end)})
		r.rec.add(span{op: id, layer: layerRouter, start: r.rec.ns(start), end: r.rec.ns(end)})
	}
	if err != nil {
		return fmt.Errorf("replay batch at %s: %w", ev.at.Format(time.RFC3339), err)
	}
	return nil
}

// connClient returns an HTTP client limited to one connection.
func connClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}
}

// post sends one agent payload to the router's /write.
func (r *runner) post(ctx context.Context, c *http.Client, id string, p *payload) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.st.routerURL+"/write", bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	if id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("router /write: status %d", resp.StatusCode)
	}
	return nil
}

// measure runs one window of the workload's measured phase. It first
// flushes the set-up's dirty pages, so their write-back does not land in
// the window, and collects the set-up's garbage. The machine's speed is
// calibrated just before and just after the window, outside it.
func (r *runner) measure(length time.Duration) error {
	syscall.Sync()
	runtime.GC()
	before, err := calibrate()
	if err != nil {
		return err
	}
	ph, err := r.beginPhase()
	if err != nil {
		return err
	}
	prim := r.primary()
	ops0, payloads0, pts0, views0 := len(prim.lat), r.ingest.payloads, r.ingest.points, len(r.views.lat)
	deadline := ph.start.Add(length)
	switch r.p.workload {
	case "agent-ingest":
		r.ingestPh = ph
		r.closedIngest(deadline)
	case "job-analysis":
		r.viewPh = ph
		r.analysts(deadline)
	case "live-dashboards":
		r.ingestPh, r.viewPh = ph, ph
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); r.openIngest(ph.start, deadline) }()
		go func() { defer wg.Done(); r.viewer(deadline) }()
		wg.Wait()
	}
	r.measured = ph
	if err := r.endPhase(ph); err != nil {
		return err
	}
	ph.payloads, ph.points, ph.views = r.ingest.payloads-payloads0, r.ingest.points-pts0, len(r.views.lat)-views0
	r.rates = append(r.rates, float64(len(prim.lat)-ops0)/ph.elapsed.Seconds())
	after, err := calibrate()
	if err != nil {
		return err
	}
	r.speeds = append(r.speeds, before.mean(after))
	r.slowness = append(r.slowness, r.speeds[len(r.speeds)-1].slowness(r.p.writesWhileMeasured()))
	r.pointRates = append(r.pointRates, float64(r.ingest.points-pts0)/ph.elapsed.Seconds())
	return nil
}

// closedIngest: two connections, each posting its hosts' payloads back to
// back.
func (r *runner) closedIngest(deadline time.Time) {
	acked := make([][]*payload, len(r.p.conns))
	var wg sync.WaitGroup
	for c := range r.p.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := connClient()
			defer client.CloseIdleConnections()
			for _, p := range r.p.conns[c] {
				if !time.Now().Before(deadline) {
					return
				}
				ctx, id := r.rec.newOp(context.Background(), false)
				start := time.Now()
				err := r.post(ctx, client, id, p)
				end := time.Now()
				r.ingest.add(msOf(end.Sub(start)), err, p.points(), 1)
				r.opSpan(id, kindIngest, start, end)
				if err == nil {
					acked[c] = append(acked[c], p)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, a := range acked {
		r.ackAll(a)
	}
}

func (r *runner) ackAll(ps []*payload) {
	for _, p := range ps {
		r.acked = append(r.acked, p)
		if p.ts.After(r.lastTS) {
			r.lastTS = p.ts
		}
	}
}

func (r *runner) opSpan(id, kind string, start, end time.Time) {
	if r.rec != nil {
		r.rec.add(span{op: id, layer: layerOp, role: kind, start: r.rec.ns(start), end: r.rec.ns(end)})
	}
}

// openIngest: one connection posting payloads on a fixed schedule; each
// payload's latency counts from its due time.
func (r *runner) openIngest(start, deadline time.Time) {
	client := connClient()
	defer client.CloseIdleConnections()
	period := time.Duration(float64(time.Second) / r.p.liveRate)
	first := start.Add(20 * time.Millisecond)
	for i, p := range r.p.live {
		p.patchTimestamps(first.Add(time.Duration(i) * period).UTC())
	}
	var acked []*payload
	for i, p := range r.p.live {
		due := first.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ctx, id := r.rec.newOp(context.Background(), false)
		sent := time.Now()
		err := r.post(ctx, client, id, p)
		end := time.Now()
		r.ingest.add(msOf(end.Sub(due)), err, p.points(), 1)
		r.ingest.mu.Lock()
		r.ingest.late = append(r.ingest.late, msOf(sent.Sub(due)))
		r.ingest.mu.Unlock()
		r.opSpan(id, kindIngest, sent, end)
		if err == nil {
			acked = append(acked, p)
		}
	}
	r.ackAll(acked)
}

// analysts: two closed-loop users opening views of finished jobs chosen
// uniformly by the seed.
func (r *runner) analysts(deadline time.Time) {
	var wg sync.WaitGroup
	var seq atomic.Int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rngFor(r.o.seed, int64(c)+1)
			client := connClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				jb := r.p.jobs[rng.Intn(len(r.p.jobs))]
				_, _ = r.timedView(client, kindView, jb.meta, seq.Add(1)%8 == 1, &r.views)
			}
		}(c)
	}
	wg.Wait()
}

// viewer: one closed-loop admin refreshing the running-jobs overview plus
// the dashboard of one running job, taking the jobs in turn.
func (r *runner) viewer(deadline time.Time) {
	client := connClient()
	defer client.CloseIdleConnections()
	for i := 0; time.Now().Before(deadline); i++ {
		jb := r.p.jobs[i%len(r.p.jobs)]
		ctx, id := r.rec.newOp(context.Background(), r.rec != nil && i%8 == 0)
		start := time.Now()
		_, err := r.refresh(ctx, client, jb.meta)
		end := time.Now()
		r.views.add(msOf(end.Sub(start)), err, 0, 0)
		r.opSpan(id, kindView, start, end)
	}
}

// timedView opens one job view as an operation, logged into log when set.
func (r *runner) timedView(client *http.Client, kind string, meta analysis.JobMeta, explain bool, log *opLog) (string, error) {
	ctx, id := r.rec.newOp(context.Background(), explain && r.rec != nil)
	start := time.Now()
	text, err := r.view(ctx, r.coordClient(client), meta)
	end := time.Now()
	if log != nil {
		log.add(msOf(end.Sub(start)), err, 0, 0)
	}
	r.opSpan(id, kind, start, end)
	return text, err
}

func (r *runner) coordClient(c *http.Client) tsdb.Querier {
	return &tsdb.Client{BaseURL: r.st.coordinator(), Database: primaryDB, HTTPClient: c}
}

// peaks of the pattern decision tree, derived from the node topology as
// core.NewSimulatedStack derives them.
func peaks() (memBW, dpMFlops float64) {
	topo := hpm.DefaultTopology()
	return float64(topo.Sockets) * 30000, float64(topo.NumHWThreads()) * topo.BaseClockMHz * 8
}

// newAgent wires a dashboard agent with its evaluator to a querier,
// timing both through the recorder.
func (r *runner) newAgent(q tsdb.Querier) *dashboard.Agent {
	memBW, dp := peaks()
	ev := &analysis.Evaluator{Querier: r.rec.wrapQuerier(q, layerAnalysis), Database: primaryDB,
		PeakMemBWMBs: memBW, PeakDPMFlops: dp}
	return &dashboard.Agent{Querier: r.rec.wrapQuerier(q, layerDashboard), Database: primaryDB, Evaluator: ev}
}

// view generates and renders a job dashboard: the dashboard JSON followed
// by its rendered panels.
func (r *runner) view(ctx context.Context, q tsdb.Querier, meta analysis.JobMeta) (string, error) {
	agent := r.newAgent(q)
	start := time.Now()
	d, err := agent.GenerateJobDashboardContext(ctx, meta)
	r.dashSpan(ctx, start)
	if err != nil {
		return "", err
	}
	return r.render(ctx, agent.Querier, d)
}

func (r *runner) render(ctx context.Context, q tsdb.Querier, d *dashboard.Dashboard) (string, error) {
	start := time.Now()
	defer r.dashSpan(ctx, start)
	js, err := d.MarshalIndent()
	if err != nil {
		return "", err
	}
	text, err := dashboard.RenderDashboard(ctx, q, primaryDB, d)
	return string(js) + "\n" + text, err
}

func (r *runner) dashSpan(ctx context.Context, start time.Time) {
	if r.rec != nil {
		r.rec.add(span{op: opFrom(ctx).id, layer: layerDashboard, start: r.rec.ns(start), end: r.rec.ns(time.Now())})
	}
}

// refresh renders the admin overview of every running job and one
// running job's dashboard.
func (r *runner) refresh(ctx context.Context, client *http.Client, meta analysis.JobMeta) (string, error) {
	q := r.coordClient(client)
	agent := r.newAgent(q)
	var running []analysis.JobMeta
	for _, jb := range r.p.jobs {
		running = append(running, jb.meta)
	}
	start := time.Now()
	admin, err := agent.GenerateAdminDashboard(running)
	r.dashSpan(ctx, start)
	if err != nil {
		return "", err
	}
	over, err := r.render(ctx, agent.Querier, admin)
	if err != nil {
		return "", err
	}
	text, err := r.view(ctx, q, meta)
	return over + text, err
}

// checkJobs picks the jobs whose views are compared against the
// single-node reference.
func (r *runner) checkJobs() []*job {
	switch r.p.workload {
	case "agent-ingest":
		rng := rngFor(r.o.seed, 99)
		var out []*job
		for _, i := range rng.Perm(len(r.p.jobs))[:6] {
			out = append(out, r.p.jobs[i])
		}
		return out
	case "job-analysis":
		out := []*job{r.p.jobs[rngFor(r.o.seed, 99).Intn(len(r.p.jobs))]}
		for _, jb := range r.p.jobs {
			if jb.idleBreak {
				out = append(out, jb)
			}
		}
		return out
	default:
		return r.p.jobs[:2]
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
