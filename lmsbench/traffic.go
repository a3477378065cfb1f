package main

// Traffic generation. Every payload the benchmark sends is derived from
// the repository's own models, once per seed and before any timing: the
// workload profiles (internal/workload) drive a simulated machine
// (internal/hpm) and OS state (internal/proc), and a collection agent
// (internal/collector) with core.Simulation's plugin set samples them. A
// few template nodes are stepped through their jobs; their samples are
// then tiled across the workload's hosts by rewriting the hostname tag and
// the timestamp, so simulator CPU never lands inside a timed phase.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/collector"
	"repro/internal/hpm"
	"repro/internal/lineproto"
	"repro/internal/proc"
	"repro/internal/workload"
)

// interval is the agents' collection period: core.SimConfig's default
// production cadence.
const interval = 60 * time.Second

// jobNodes is the node count of every simulated job.
const jobNodes = 8

// numUsers is the number of distinct job owners.
const numUsers = 16

// measurements lists every measurement a payload can carry, in the order
// payload.lines counts them. The first six are the collector's; minimd is
// the libusermetric application measurement of a miniMD run.
var measurements = []string{"cpu", "memory", "load", "network", "disk", "likwid_mem_dp", "minimd"}

const appMeas = 6 // index of minimd in measurements

// countField is a field every point of the measurement carries, used to
// count stored points with count().
var countField = map[string]string{
	"cpu": "percent", "memory": "used_kb", "load": "load1", "network": "rx_bytes_per_s",
	"disk": "read_bytes_per_s", "likwid_mem_dp": "dp_mflop_s", "minimd": "energy", "events": "text",
}

// tsPlaceholder is the timestamp rendered into payloads whose send time is
// only known once the measured phase starts; it has the same 19 digits as
// every nanosecond timestamp between 2001 and 2286, so patchTimestamps can
// overwrite it in place.
var tsPlaceholder = time.Unix(0, 1_000_000_000_000_000_000)

// payload is one agent POST: a host's samples of one interval.
type payload struct {
	ts    time.Time
	body  []byte
	lines [7]uint8 // lines per entry of measurements
	user  string   // owner of the job running on the host at ts, "" if idle
	tsPos []int    // offsets of the timestamp digits (placeholder payloads only)
}

// points returns the number of lines of the payload.
func (p *payload) points() int {
	n := 0
	for _, c := range p.lines {
		n += int(c)
	}
	return n
}

// patchTimestamps overwrites the placeholder timestamps with ts.
func (p *payload) patchTimestamps(ts time.Time) {
	digits := strconv.AppendInt(make([]byte, 0, 19), ts.UnixNano(), 10)
	for _, off := range p.tsPos {
		copy(p.body[off:off+19], digits)
	}
	p.ts = ts
}

// simNode is one simulated compute node composed the way core.Simulation
// composes its nodes.
type simNode struct {
	topo    hpm.Topology
	machine *hpm.Machine
	proc    *proc.State
	agent   *collector.Agent
}

func newSimNode(name string) (*simNode, error) {
	topo := hpm.DefaultTopology()
	machine, err := hpm.NewMachine(topo)
	if err != nil {
		return nil, err
	}
	ps, err := proc.NewState(name, topo.NumHWThreads(), 64*1024*1024)
	if err != nil {
		return nil, err
	}
	agent, err := collector.New(collector.Config{
		Hostname: name,
		Sink:     func([]byte) error { return nil }, // samples are taken with CollectOnce
	})
	if err != nil {
		return nil, err
	}
	for _, p := range []collector.Plugin{
		&collector.LoadPlugin{FS: ps},
		&collector.CPUPlugin{FS: ps},
		&collector.MemoryPlugin{FS: ps},
		&collector.NetworkPlugin{FS: ps},
		&collector.DiskPlugin{FS: ps},
		&collector.HPMPlugin{Machine: machine, GroupName: "MEM_DP"},
	} {
		if err := agent.Register(p); err != nil {
			return nil, err
		}
	}
	return &simNode{topo: topo, machine: machine, proc: ps, agent: agent}, nil
}

// step advances the node by one interval with model running at job time t
// (nil = idle) and returns the agent's samples stamped ts. It mirrors
// core.Simulation's applyProfiles and Step.
func (n *simNode) step(model workload.Model, t float64, ts time.Time) ([]lineproto.Point, error) {
	if model != nil {
		runnable := 0
		var netRx, netTx, diskR, diskW float64
		for core := 0; core < n.topo.NumHWThreads(); core++ {
			p := model.ProfileAt(t, core)
			if err := n.machine.SetRates(core, p.Rates(n.topo.BaseClockMHz)); err != nil {
				return nil, err
			}
			if err := n.proc.SetCPULoad(core, p.UserFrac, p.SysFrac); err != nil {
				return nil, err
			}
			if !p.Idle() {
				runnable++
				netRx += p.MemBytes * 0.001
				netTx += p.MemBytes * 0.001
				diskR += 1e5
				diskW += 5e4
			}
		}
		n.proc.SetRunnable(runnable)
		n.proc.SetMemUsed(model.MemUsedKB(t))
		n.proc.SetNetRates(netRx, netTx)
		n.proc.SetDiskRates(diskR, diskW)
	}
	dt := interval.Seconds()
	if err := n.machine.Advance(dt); err != nil {
		return nil, err
	}
	if err := n.proc.Tick(dt); err != nil {
		return nil, err
	}
	return n.agent.CollectOnce(ts), nil
}

// track is one template node's samples, one entry per interval.
type track [][]lineproto.Point

// jobKinds are the models production jobs are drawn from.
var jobKinds = []string{"triad", "dgemm", "imbalance", "memleak", "minimd"}

// newModel builds a model of the given kind whose busy phase spans
// runtime seconds.
func newModel(kind string, runtime float64) workload.Model {
	cores := hpm.DefaultTopology().NumHWThreads()
	switch kind {
	case "triad":
		return workload.NewTriad(cores, runtime)
	case "dgemm":
		return workload.NewDGEMM(cores, runtime)
	case "imbalance":
		return &workload.LoadImbalance{Cores: cores, RuntimeSecs: runtime}
	case "memleak":
		// Grows from 8 GiB to past the 64 GiB node capacity.
		return &workload.MemoryLeak{Cores: cores, RuntimeSecs: runtime,
			StartKB: 8 << 20, LeakKBPerS: float64(60<<20) / runtime}
	case "minimd":
		mm := workload.NewMiniMD(cores, 2097152, 1)
		mm.TotalIterations = int(runtime/mm.SecsPer100*100) + 100
		return mm
	case "idlebreak":
		// A 12-minute compute break, longer than the 10-minute rule
		// timeout, starting two intervals into the job (paper Fig. 4).
		return workload.NewIdleBreak(cores, runtime, 120, 120+12*60)
	}
	panic("unknown job kind " + kind)
}

// generator holds the template tracks of one seed.
type generator struct {
	rng       *rand.Rand
	kinds     []string
	jobTracks [][]track // [template][node index]
	idle      track
	idleBreak []track // per node index; nil unless requested
	app       *workload.MiniMD
}

// newGenerator simulates templates job templates of jobNodes nodes each
// (jobKinds in turn, shuffled by the seed), one idle node and, when
// withIdleBreak is set, one IdleBreak job, each for length intervals.
func newGenerator(seed int64, templates, length int, withIdleBreak bool) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	runtime := float64(length) * interval.Seconds()
	simJob := func(kind string) ([]track, error) {
		model := newModel(kind, runtime)
		out := make([]track, jobNodes)
		for i := range out {
			m := model
			if na, ok := model.(workload.NodeAware); ok {
				m = na.WithNodeIndex(i, jobNodes)
			}
			tr, err := simTrack(m, length)
			if err != nil {
				return nil, fmt.Errorf("simulate %s node %d: %w", kind, i, err)
			}
			out[i] = tr
		}
		return out, nil
	}
	// Every seed simulates the same mix of kinds, so seeds vary the
	// samples and the placement, not the work a view costs.
	kinds := make([]string, templates)
	for t := range kinds {
		kinds[t] = jobKinds[t%len(jobKinds)]
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range kinds {
		tracks, err := simJob(kind)
		if err != nil {
			return nil, err
		}
		g.kinds = append(g.kinds, kind)
		g.jobTracks = append(g.jobTracks, tracks)
	}
	idle, err := simTrack(nil, length)
	if err != nil {
		return nil, err
	}
	g.idle = idle
	if withIdleBreak {
		if g.idleBreak, err = simJob("idlebreak"); err != nil {
			return nil, err
		}
	}
	g.app = newModel("minimd", runtime).(*workload.MiniMD)
	return g, nil
}

// simTrack steps one fresh node through length intervals of model (job
// time 0 at the first kept sample). The first interval only arms the
// rate-based plugins and is dropped, as a real agent's first cycle.
func simTrack(model workload.Model, length int) (track, error) {
	n, err := newSimNode("template")
	if err != nil {
		return nil, err
	}
	step := func(k int) ([]lineproto.Point, error) {
		t := float64(k) * interval.Seconds()
		return n.step(model, t, tsPlaceholder.Add(time.Duration(k+1)*interval))
	}
	if _, err := step(-1); err != nil {
		return nil, err
	}
	out := make(track, length)
	for k := range out {
		if out[k], err = step(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sample names one template sample and where it is tiled to.
type sample struct {
	tr      track
	k       int // interval index into tr (wraps)
	jobTime float64
	app     bool // append the miniMD application sample of jobTime
}

// render builds one host's payload from a template sample. A zero ts keeps
// the placeholder timestamp and records its offsets for patchTimestamps.
func (g *generator) render(host int, s sample, ts time.Time, user string) *payload {
	p := &payload{ts: ts, user: user}
	stamp := ts
	if ts.IsZero() {
		stamp = tsPlaceholder
	}
	name := hostName(host)
	var buf bytes.Buffer
	emit := func(pt lineproto.Point, meas int) {
		start := buf.Len()
		line, err := lineproto.AppendPoint(buf.AvailableBuffer(), pt)
		if err != nil {
			panic(err) // the models only produce valid points
		}
		buf.Write(line)
		if ts.IsZero() {
			p.tsPos = append(p.tsPos, start+len(line)-19)
		}
		buf.WriteByte('\n')
		p.lines[meas]++
	}
	for _, pt := range s.tr[s.k%len(s.tr)] {
		tags := make(map[string]string, len(pt.Tags))
		for k, v := range pt.Tags {
			tags[k] = v
		}
		tags["hostname"] = name
		pt.Tags = tags
		pt.Time = stamp
		emit(pt, measIndex(pt.Measurement))
	}
	if s.app {
		dt := interval.Seconds()
		if smp := g.app.Samples(s.jobTime-dt, s.jobTime); len(smp) > 0 {
			last := smp[len(smp)-1]
			emit(lineproto.Point{
				Measurement: "minimd",
				Tags: map[string]string{"hostname": name, "app": "minimd",
					"iteration": strconv.Itoa(last.Iteration)},
				Fields: map[string]lineproto.Value{
					"runtime_100iter": lineproto.Float(last.Runtime100),
					"pressure":        lineproto.Float(last.Pressure),
					"temperature":     lineproto.Float(last.Temp),
					"energy":          lineproto.Float(last.Energy),
				},
				Time: stamp,
			}, appMeas)
		}
	}
	p.body = buf.Bytes()
	return p
}

func measIndex(name string) int {
	for i, m := range measurements {
		if m == name {
			return i
		}
	}
	panic("unexpected measurement " + name)
}

func hostName(h int) string { return fmt.Sprintf("n%04d", h) }

func userName(u int) string { return fmt.Sprintf("user%02d", u) }
