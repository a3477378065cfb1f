package main

// Machine-speed calibration. The benchmark runs on a few virtual CPUs and
// a virtual disk of a shared host, whose speed drifts by tens of percent
// over minutes as neighbours load it: the CPU time of a job view and the
// fsync latency of a WAL move with it, so no median over one run removes
// the drift. Each measured window is therefore bracketed by two fixed
// loads that use only the standard library, one on the CPUs and one on
// the disk, and the window's timings are scaled to what they would have
// been at the reference speed of the recorded machine. A change to the
// program cannot move the calibration; a change of machine moves both.

import (
	"crypto/sha256"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"
)

const (
	// cpuRounds is the number of CPU rounds timed on each side of a
	// window (about half a second).
	cpuRounds = 24
	// cpuRef is the median CPU round time, in seconds, on the recorded
	// machine (README.md).
	cpuRef = 0.0225
	// diskProbe is how long the disk load runs on each side of a window.
	diskProbe = 300 * time.Millisecond
	// diskRef is the mean fsync latency of the disk load, in seconds, on
	// the recorded machine.
	diskRef = 0.000109
)

// speed is one calibration: the CPU round time and the fsync latency,
// each divided by its reference. Values above 1 mean a slower machine.
type speed struct{ cpu, disk float64 }

// calibrate measures the machine's current speed. The disk load writes
// in the directory that holds the stacks' data.
func calibrate() (speed, error) {
	disk, err := fsyncLatency(dataRoot, diskProbe)
	if err != nil {
		return speed{}, err
	}
	return speed{cpu: cpuRoundTime(cpuRounds) / cpuRef, disk: disk / diskRef}, nil
}

func (s speed) mean(o speed) speed { return speed{(s.cpu + o.cpu) / 2, (s.disk + o.disk) / 2} }

// slowness is the factor a workload's timings are scaled by: the disk's
// for a workload that writes while measured, whose throughput follows the
// fsync latency of the WAL; the CPUs' for one that only reads.
func (s speed) slowness(writes bool) float64 {
	if writes {
		return s.disk
	}
	return s.cpu
}

// cpuLoad is one goroutine's buffers, allocated once so that the rounds
// do not time the garbage collector.
type cpuLoad struct {
	xs  []uint64
	buf []byte
	m   map[uint64]int
}

func newCPULoad() *cpuLoad {
	return &cpuLoad{xs: make([]uint64, 1<<17), buf: make([]byte, 1<<19), m: make(map[uint64]int, 1<<14)}
}

// round sorts, hashes and fills a map, and returns a value derived from
// the work so that none of it is optimized away.
func (c *cpuLoad) round() uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.xs {
		c.xs[i] = next()
	}
	slices.Sort(c.xs)
	for i := range c.buf {
		c.buf[i] = byte(next())
	}
	sum := sha256.Sum256(c.buf)
	clear(c.m)
	for i := 0; i < 1<<15; i++ {
		c.m[next()%(1<<14)] += i
	}
	return c.xs[len(c.xs)/2] ^ uint64(sum[0]) ^ uint64(len(c.m))
}

// cpuRoundTime runs rounds rounds of the CPU load on GOMAXPROCS
// goroutines at once, as the stack loads every CPU, and returns the
// median round time in seconds.
func cpuRoundTime(rounds int) float64 {
	loads := make([]*cpuLoad, runtime.GOMAXPROCS(0))
	for i := range loads {
		loads[i] = newCPULoad()
	}
	out := make([]uint64, len(loads)) // keeps the rounds' results live
	times := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i, l := range loads {
			wg.Add(1)
			go func() { defer wg.Done(); out[i] = l.round() }()
		}
		wg.Wait()
		times = append(times, time.Since(start).Seconds())
	}
	return median(times)
}

// fsyncLatency appends WAL-sized records to a scratch file in dir, each
// followed by an fsync, for d, and returns the mean fsync latency in
// seconds. The mean, not the median, because a WAL waits out the slow
// fsyncs too.
func fsyncLatency(dir string, d time.Duration) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, "calib-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, 600)
	var total time.Duration
	n := 0
	for end := time.Now().Add(d); n == 0 || time.Now().Before(end); n++ {
		if _, err := f.Write(rec); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total.Seconds() / float64(n), nil
}
