package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobsched"
	"repro/internal/lineproto"
	"repro/internal/workload"
)

// schema maps measurement → sorted field keys and sorted tag keys.
type schema map[string][2]string

func addSchema(s schema, meas string, fields, tags []string) {
	sort.Strings(fields)
	sort.Strings(tags)
	s[meas] = [2]string{strings.Join(fields, ","), strings.Join(tags, ",")}
}

// TestGeneratorMatchesSimulation checks that the generated payloads carry
// the measurements, fields and tags a short core.Simulation run stores
// (minus the router's job tags, which the benchmark's router adds).
func TestGeneratorMatchesSimulation(t *testing.T) {
	stack, sim, err := core.NewSimulatedStack(core.StackConfig{}, core.SimConfig{Nodes: 2, CollectInterval: interval.Seconds()})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if err := sim.SubmitJob(jobsched.JobRequest{ID: "1.md", User: "alice", Nodes: 1}, workload.NewMiniMD(20, 2097152, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := sim.SubmitJob(jobsched.JobRequest{ID: "2.triad", User: "bob", Nodes: 1}, workload.NewTriad(20, 600)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(600); err != nil {
		t.Fatal(err)
	}
	want := schema{}
	for _, m := range stack.DB.Measurements() {
		if m == "events" {
			continue // job signals, written by the router itself
		}
		var tags []string
		for _, k := range stack.DB.TagKeys(m) {
			if k != "jobid" && k != "username" {
				tags = append(tags, k)
			}
		}
		addSchema(want, m, stack.DB.FieldKeys(m), tags)
	}

	g, err := newGenerator(1, 2, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]map[string]bool{}
	tags := map[string]map[string]bool{}
	for k := 0; k < 6; k++ {
		for _, s := range []sample{
			{tr: g.jobTracks[0][0], k: k, jobTime: 300, app: true},
			{tr: g.jobTracks[1][3], k: k},
			{tr: g.idle, k: k},
		} {
			pts, err := lineproto.Parse(g.render(7, s, core.SimEpoch, "alice").body)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if fields[p.Measurement] == nil {
					fields[p.Measurement], tags[p.Measurement] = map[string]bool{}, map[string]bool{}
				}
				for f := range p.Fields {
					fields[p.Measurement][f] = true
				}
				for tg := range p.Tags {
					tags[p.Measurement][tg] = true
				}
			}
		}
	}
	got := schema{}
	for m := range fields {
		addSchema(got, m, sortedKeys(fields[m]), sortedKeys(tags[m]))
	}
	if len(got) != len(want) {
		t.Errorf("generator measurements %v, simulation stores %v", sortedKeys(got), sortedKeys(want))
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: generator fields/tags %q, simulation %q", m, got[m], w)
		}
	}
}

// planBytes concatenates every payload body of a plan.
func planBytes(p *plan) []byte {
	var b bytes.Buffer
	for _, ev := range p.setupEvents {
		b.Write(ev.body)
		if ev.start != nil {
			b.WriteString(ev.start.JobID + ev.start.User + strings.Join(ev.start.Nodes, ","))
		}
		b.WriteString(ev.end)
	}
	for _, c := range p.conns {
		for _, pl := range c {
			b.Write(pl.body)
		}
	}
	for _, pl := range p.live {
		b.Write(pl.body)
	}
	return b.Bytes()
}

func TestPlansAreSeeded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(seed int64) (*plan, error)
	}{
		{"agent-ingest", func(seed int64) (*plan, error) { return planAgentIngest(seed, 0.5) }},
		{"job-analysis", planJobAnalysis},
	} {
		a, err := tc.build(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tc.build(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := tc.build(8)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb, cb := planBytes(a), planBytes(b), planBytes(c)
		if len(ab) == 0 {
			t.Fatalf("%s: empty plan", tc.name)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: the same seed gave different payload bytes", tc.name)
		}
		if bytes.Equal(ab, cb) {
			t.Errorf("%s: different seeds gave identical payload bytes", tc.name)
		}
	}
}

func TestPatchTimestamps(t *testing.T) {
	g, err := newGenerator(3, 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	p := g.render(5, sample{tr: g.jobTracks[0][0], k: 1}, time.Time{}, "bob")
	ts := core.SimEpoch.Add(1234567)
	p.patchTimestamps(ts)
	pts, err := lineproto.Parse(p.body)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || len(pts) != p.points() {
		t.Fatalf("parsed %d points, payload counts %d", len(pts), p.points())
	}
	for _, pt := range pts {
		if !pt.Time.Equal(ts) || pt.Tags["hostname"] != hostName(5) {
			t.Fatalf("point %s at %v host %q, want %v %q", pt.Measurement, pt.Time, pt.Tags["hostname"], ts, hostName(5))
		}
	}
}
