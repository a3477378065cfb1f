// Command lmsbench is the end-to-end benchmark of the LIKWID Monitoring
// Stack: a three-node durable lms-db cluster (R=2) behind a pure-coordinator
// lms-router (W=1, per-user duplication), all in this process over
// loopback HTTP, driven by a seeded load generator through public entry
// points only. See README.md in this directory for the workloads and
// metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash lmsbench/run.sh --workload agent-ingest --seed 1 --seconds 25 --trace 0
//
// --workload is agent-ingest, job-analysis, live-dashboards or all.
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// three times (untraced, traced, and with the stack's own tracing off) and
// prints the per-layer breakdown. The last line of standard output is one
// JSON object; the exit code is non-zero if any check or operation fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// setups is the number of stack set-ups, and measured windows, of an
// untraced run; setup_s is their median.
const setups = 5

// metric is one reported value.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int    // samples behind the value (0 = not a sampled value)
	note   string // how it was taken, or why it is absent
	absent bool
}

var workloads = []string{"agent-ingest", "job-analysis", "live-dashboards"}

func main() {
	o := options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "agent-ingest, job-analysis, live-dashboards or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated traffic")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run with the per-layer breakdown")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "lmsbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if o.workload == w || o.workload == "all" {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "lmsbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	ok := true
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printResult(o, res)
		ok = ok && res.correct && res.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// result is what one workload invocation reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	human     []metric // every printed line: user-facing names, JSON metrics, per-layer
	metrics   []metric // the JSON metrics
}

// buildPlan generates the workload's traffic, enough for the longest
// measured window of the run.
func buildPlan(o options) (*plan, error) {
	window := o.seconds
	if !o.trace {
		window /= setups
	}
	switch o.workload {
	case "agent-ingest":
		return planAgentIngest(o.seed, window)
	case "job-analysis":
		return planJobAnalysis(o.seed)
	default:
		return planLiveDashboards(o.seed, window)
	}
}

func runWorkload(o options) (*result, error) {
	p, err := buildPlan(o)
	if err != nil {
		return nil, fmt.Errorf("generate traffic: %w", err)
	}
	run := func(v variant, setups int) (*runner, error) {
		r := &runner{o: o, p: p, v: v}
		if err := r.run(setups); err != nil {
			return nil, fmt.Errorf("%s run: %w", v.name, err)
		}
		return r, nil
	}
	shipped := variant{name: "untraced", traces: 256}
	res := &result{}
	collect := func(rs ...*runner) {
		for _, r := range rs {
			for _, l := range []*opLog{&r.ingest, &r.views} {
				res.attempted += l.attempted
				res.failed += l.failed
				if l.firstErr != nil {
					res.problems = append(res.problems, fmt.Sprintf("%s: %d of %d operations failed, first: %v",
						r.v.name, l.failed, l.attempted, l.firstErr))
				}
			}
			for _, pr := range r.problems {
				res.problems = append(res.problems, r.v.name+": "+pr)
			}
		}
	}
	if !o.trace {
		r, err := run(shipped, setups)
		if err != nil {
			return nil, err
		}
		collect(r)
		res.metrics = endToEnd(r)
		res.human = append(append(append(userMetrics(r), res.metrics...), layerMetrics(r, nil, nil)...), workloadMetrics(r)...)
	} else {
		a, err := run(shipped, 1)
		if err != nil {
			return nil, err
		}
		b, err := run(variant{name: "traced", traces: 256, benchTrace: true}, 1)
		if err != nil {
			return nil, err
		}
		c, err := run(variant{name: "traces-off", traces: 0}, 1)
		if err != nil {
			return nil, err
		}
		collect(a, b, c)
		res.metrics = layerMetrics(b, a, c)
		res.human = append(append(append(userMetrics(a), res.metrics...), workloadMetrics(b)...), spanSums(b)...)
	}
	res.correct = len(res.problems) == 0
	return res, nil
}

func printResult(o options, res *result) {
	gomax := runtime.GOMAXPROCS(0)
	fmt.Printf("lmsbench: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s datadir_fs=%s fsync=batch\n",
		cpuModel(), runtime.NumCPU(), gomax, runtime.Version(), fsType(dataRoot))
	for _, m := range res.human {
		line := fmt.Sprintf("metric %-44s", m.name)
		if m.absent {
			line += " absent"
		} else {
			line += fmt.Sprintf(" %.6g %s", m.value, m.unit)
		}
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		if m.note != "" {
			line += " [" + m.note + "]"
		}
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	ms := map[string]any{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out["metrics"] = ms
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lmsbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(js)))
}
