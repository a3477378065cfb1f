package main

// Workload plans: the seeded schedule of jobs, router inputs and agent
// payloads of each workload, built before any timing starts.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/router"
)

// event is one router input of a replayed timeline.
type event struct {
	at       time.Time // router clock
	start    *router.JobSignal
	end      string
	body     []byte // one IngestBatch: the joined payloads
	payloads []*payload
}

type job struct {
	id        string
	user      string
	hosts     []int
	meta      analysis.JobMeta // End zero while running
	idleBreak bool
}

// plan is one workload's pre-generated traffic.
type plan struct {
	workload      string
	jobs          []*job
	setupEvents   []event      // replayed through the router during set-up
	conns         [][]*payload // agent-ingest: each closed-loop connection's payloads, in send order
	live          []*payload   // live-dashboards: open-loop payloads, in send order
	liveRate      float64      // payloads per second of the open loop
	compressAfter time.Duration
	restart       bool
}

// writesWhileMeasured reports whether the measured phase sends agent
// payloads; job-analysis writes only during set-up.
func (p *plan) writesWhileMeasured() bool { return len(p.conns) > 0 || len(p.live) > 0 }

// sizes of the workloads.
const (
	ingestHosts    = 1024
	ingestMaxRate  = 3000 // payloads/s the pre-generated pools can feed: a ceiling on agent-ingest
	appHostFrac    = 0.125
	analysisHosts  = 128
	analysisLength = 60            // intervals of job history
	analysisBatch  = analysisHosts // hosts per replayed history batch: one interval of every host
	liveHosts      = 64
	liveHistory    = 120 // intervals: two hours
	liveRate       = 100 // payloads/s: about a fifth of what agent-ingest sustains
)

// batchOf joins payloads into one replay batch.
func batchOf(at time.Time, ps []*payload) event {
	var body []byte
	for _, p := range ps {
		body = append(body, p.body...)
	}
	return event{at: at, body: body, payloads: ps}
}

func startEvent(at time.Time, j *job) event {
	nodes := make([]string, len(j.hosts))
	for i, h := range j.hosts {
		nodes[i] = hostName(h)
	}
	return event{at: at, start: &router.JobSignal{JobID: j.id, User: j.user, Nodes: nodes}}
}

// planAgentIngest: 1024 hosts, 80% of them in 8-node jobs of 16 users,
// posting their per-interval payloads as fast as two connections allow.
func planAgentIngest(seed int64, window float64) (*plan, error) {
	const templates, length = 8, 32
	g, err := newGenerator(seed, templates, length, false)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "agent-ingest"}
	t0 := core.SimEpoch
	type hostRole struct {
		tpl, node, off int
		user           string
		app            bool
	}
	roles := make([]hostRole, ingestHosts)
	numJobs := ingestHosts * 4 / 5 / jobNodes // 80% of the hosts
	for j := 0; j < numJobs; j++ {
		jb := &job{id: fmt.Sprintf("%d.ingest", 1000+j), user: userName(j % numUsers)}
		tpl, off := g.rng.Intn(templates), g.rng.Intn(length)
		for i := 0; i < jobNodes; i++ {
			h := j*jobNodes + i
			jb.hosts = append(jb.hosts, h)
			roles[h] = hostRole{tpl: tpl, node: i, off: off, user: jb.user, app: g.rng.Float64() < appHostFrac}
		}
		jb.meta = analysis.JobMeta{ID: jb.id, User: jb.user, Nodes: hostNames(jb.hosts), Start: t0}
		p.jobs = append(p.jobs, jb)
		p.setupEvents = append(p.setupEvents, startEvent(t0, jb))
	}
	for h := numJobs * jobNodes; h < ingestHosts; h++ {
		roles[h] = hostRole{tpl: -1, off: g.rng.Intn(length)}
	}
	perConn := int(math.Ceil(window * ingestMaxRate / 2))
	for c := 0; c < 2; c++ {
		var hosts []int
		for h := c; h < ingestHosts; h += 2 {
			hosts = append(hosts, h)
		}
		pool := make([]*payload, perConn)
		for i := range pool {
			h, round := hosts[i%len(hosts)], i/len(hosts)
			r := roles[h]
			jobTime := float64(round+1) * interval.Seconds()
			s := sample{tr: g.idle, k: round + r.off}
			if r.tpl >= 0 {
				s = sample{tr: g.jobTracks[r.tpl][r.node], k: round + r.off, jobTime: jobTime, app: r.app}
			}
			pool[i] = g.render(h, s, t0.Add(time.Duration(round+1)*interval), r.user)
		}
		p.conns = append(p.conns, pool)
	}
	return p, nil
}

// planJobAnalysis: 128 hosts in 16 groups of 8 running back-to-back
// finished jobs for 60 intervals of history, one job an IdleBreak.
func planJobAnalysis(seed int64) (*plan, error) {
	const templates, minJob, maxJob = 8, 14, 20
	g, err := newGenerator(seed, templates, maxJob, true)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "job-analysis", compressAfter: time.Minute, restart: true}
	t0 := core.SimEpoch
	type run struct {
		jb         *job
		tpl        int
		start, end int // intervals, inclusive
	}
	groups := analysisHosts / jobNodes
	runsOf := make([][]*run, groups)
	n := 0
	for grp := 0; grp < groups; grp++ {
		t := g.rng.Intn(4)
		for {
			d := minJob + g.rng.Intn(maxJob-minJob+1)
			if t+d > analysisLength {
				break
			}
			jb := &job{id: fmt.Sprintf("%d.hist", 2000+n), user: userName(g.rng.Intn(numUsers))}
			n++
			for i := 0; i < jobNodes; i++ {
				jb.hosts = append(jb.hosts, grp*jobNodes+i)
			}
			r := &run{jb: jb, tpl: g.rng.Intn(templates), start: t, end: t + d - 1}
			jb.meta = analysis.JobMeta{ID: jb.id, User: jb.user, Nodes: hostNames(jb.hosts),
				Start: t0.Add(time.Duration(r.start) * interval), End: t0.Add(time.Duration(r.end) * interval)}
			runsOf[grp] = append(runsOf[grp], r)
			p.jobs = append(p.jobs, jb)
			t += d + 1 + g.rng.Intn(2)
		}
	}
	// The IdleBreak job must be long enough to hold its whole break.
	var long []*job
	for _, jb := range p.jobs {
		if jb.meta.End.Sub(jb.meta.Start) >= 15*interval {
			long = append(long, jb)
		}
	}
	long[g.rng.Intn(len(long))].idleBreak = true
	for k := 0; k < analysisLength; k++ {
		at := t0.Add(time.Duration(k) * interval)
		var ends []event
		var batch []*payload
		for grp := 0; grp < groups; grp++ {
			var cur *run
			for _, r := range runsOf[grp] {
				if r.start <= k && k <= r.end {
					cur = r
				}
			}
			if cur != nil && cur.start == k {
				p.setupEvents = append(p.setupEvents, startEvent(at, cur.jb))
			}
			for i := 0; i < jobNodes; i++ {
				h := grp*jobNodes + i
				s := sample{tr: g.idle, k: k + h}
				user := ""
				if cur != nil {
					tr := g.jobTracks[cur.tpl][i]
					if cur.jb.idleBreak {
						tr = g.idleBreak[i]
					}
					jobTime := float64(k-cur.start) * interval.Seconds()
					s = sample{tr: tr, k: k - cur.start, jobTime: jobTime, app: i == 0 && g.kinds[cur.tpl] == "minimd"}
					user = cur.jb.user
				}
				batch = append(batch, g.render(h, s, at, user))
			}
			if len(batch) == analysisBatch {
				p.setupEvents = append(p.setupEvents, batchOf(at, batch))
				batch = nil
			}
			if cur != nil && cur.end == k {
				ends = append(ends, event{at: at, end: cur.jb.id})
			}
		}
		p.setupEvents = append(p.setupEvents, ends...)
	}
	return p, nil
}

// planLiveDashboards: 8 running 8-node jobs with a two-hour history
// ending now, then agents reporting at a fixed rate.
func planLiveDashboards(seed int64, window float64) (*plan, error) {
	const templates, length = 8, 64
	g, err := newGenerator(seed, templates, length, false)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "live-dashboards", liveRate: liveRate}
	t0 := time.Now().UTC().Truncate(time.Second).Add(-liveHistory * interval)
	type hostRole struct {
		tpl, node, off int
		user           string
	}
	roles := make([]hostRole, liveHosts)
	for j := 0; j < liveHosts/jobNodes; j++ {
		jb := &job{id: fmt.Sprintf("%d.live", 3000+j), user: userName(j % numUsers)}
		tpl, off := g.rng.Intn(templates), g.rng.Intn(length)
		for i := 0; i < jobNodes; i++ {
			h := j*jobNodes + i
			jb.hosts = append(jb.hosts, h)
			roles[h] = hostRole{tpl: tpl, node: i, off: off, user: jb.user}
		}
		jb.meta = analysis.JobMeta{ID: jb.id, User: jb.user, Nodes: hostNames(jb.hosts), Start: t0}
		p.jobs = append(p.jobs, jb)
		p.setupEvents = append(p.setupEvents, startEvent(t0, jb))
	}
	sampleOf := func(h, k int) sample {
		r := roles[h]
		return sample{tr: g.jobTracks[r.tpl][r.node], k: k + r.off,
			jobTime: float64(k) * interval.Seconds(), app: r.node == 0 && g.kinds[r.tpl] == "minimd"}
	}
	for k := 0; k < liveHistory; k++ {
		at := t0.Add(time.Duration(k) * interval)
		batch := make([]*payload, 0, liveHosts)
		for h := 0; h < liveHosts; h++ {
			batch = append(batch, g.render(h, sampleOf(h, k), at, roles[h].user))
		}
		p.setupEvents = append(p.setupEvents, batchOf(at, batch))
	}
	total := int(math.Ceil(window*liveRate)) + 1
	for i := 0; i < total; i++ {
		h := i % liveHosts
		p.live = append(p.live, g.render(h, sampleOf(h, liveHistory+i/liveHosts), time.Time{}, roles[h].user))
	}
	return p, nil
}

func hostNames(hosts []int) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = hostName(h)
	}
	return out
}

// rngFor derives an independent deterministic stream from the seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}
