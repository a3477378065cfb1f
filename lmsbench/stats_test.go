package main

import (
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 90}, {99, 90}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {100, 1000}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.n != 5 || s.p50 != 3 || s.tailP != 90 || s.tail != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		ivs  []ival
		want int64
	}{
		{nil, 0},
		{[]ival{{0, 10}}, 10},
		{[]ival{{0, 10}, {5, 15}}, 15},
		{[]ival{{20, 30}, {0, 10}}, 20},
		{[]ival{{0, 10}, {2, 3}, {10, 12}}, 12},
		{[]ival{{5, 5}, {7, 6}}, 0},
	} {
		if got := unionLength(tc.ivs); got != tc.want {
			t.Errorf("unionLength(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestLayerSelf(t *testing.T) {
	// An ingest: the router handler inside the client call, two sink
	// calls inside the router, concurrent replica writes inside them.
	op := ival{0, 100}
	layers := [][]ival{
		{{10, 90}},
		{{20, 40}, {50, 70}},
		{{25, 35}, {30, 38}, {55, 60}},
	}
	got := layerSelf(op, layers)
	want := []int64{20, 40, 22, 18}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layerSelf = %v, want %v", got, want)
		}
	}
	// Intervals reaching outside the operation are clipped to it.
	got = layerSelf(ival{10, 20}, [][]ival{{{0, 15}}, {{18, 30}}})
	if got[0] != 3 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("clipped layerSelf = %v, want [3 5 2]", got)
	}
}

func TestLayerSelfSumsToOperation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		op := ival{int64(rng.Intn(50)), 0}
		op.end = op.start + int64(rng.Intn(500))
		layers := make([][]ival, 1+rng.Intn(5))
		for d := range layers {
			for n := rng.Intn(6); n > 0; n-- {
				s := int64(rng.Intn(600)) - 25
				layers[d] = append(layers[d], ival{s, s + int64(rng.Intn(200))})
			}
		}
		var sum int64
		for _, v := range layerSelf(op, layers) {
			if v < 0 {
				t.Fatalf("negative self time in %v", layerSelf(op, layers))
			}
			sum += v
		}
		if sum != op.end-op.start {
			t.Fatalf("self times sum to %d, operation lasts %d", sum, op.end-op.start)
		}
	}
}

func TestSpeedScaling(t *testing.T) {
	slowness := []float64{2, 1, 0.5}
	// Window 1 has no samples: the scaled windows must stay aligned.
	lat := []float64{10, 20, 30, 4}
	w := windowed(lat, []int{3, 3, 4}).scaled(slowness)
	if len(w.p50s) != 2 || w.p50s[0] != 10 || w.p50s[1] != 8 {
		t.Fatalf("scaled p50s = %v, want [10 8]", w.p50s)
	}
	if w.tails[0] != 15 || w.tails[1] != 8 {
		t.Fatalf("scaled tails = %v, want [15 8]", w.tails)
	}
	if got := scaleRates([]float64{10, 10, 10}, slowness); got[0] != 20 || got[1] != 10 || got[2] != 5 {
		t.Fatalf("scaleRates = %v, want [20 10 5]", got)
	}
	if got := scaleTimes([]float64{10, 10, 10}, slowness); got[0] != 5 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("scaleTimes = %v, want [5 10 20]", got)
	}
}

func TestCalibrationLoads(t *testing.T) {
	if got := cpuRoundTime(2); !(got > 0) {
		t.Fatalf("cpuRoundTime = %v, want a positive round time", got)
	}
	dir := t.TempDir()
	got, err := fsyncLatency(dir, 10*time.Millisecond)
	if err != nil || !(got > 0) {
		t.Fatalf("fsyncLatency = %v, %v; want a positive latency", got, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("fsyncLatency left %d files behind", len(left))
	}
	s := speed{cpu: 2, disk: 3}
	if s.slowness(false) != 2 || s.slowness(true) != 3 {
		t.Fatalf("slowness picks the wrong calibration")
	}
}
