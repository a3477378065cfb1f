package main

// Counters taken without tracing: the Prometheus /metrics documents the
// nodes and the router already export, the process's own CPU and
// allocation counters, and the size of the data directories.

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// promDoc is one scraped /metrics document: series key → value.
type promDoc map[string]float64

func scrape(c *http.Client, url string) (promDoc, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promDoc, error) {
	doc := promDoc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		doc[line[:i]] = v
	}
	return doc, sc.Err()
}

// sum adds every series of the named metric whose labels contain all of
// the given label fragments (e.g. `state="sealed"`).
func (d promDoc) sum(name string, labels ...string) float64 {
	var total float64
	for key, v := range d {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// scrapeSet is one scrape of every node and the router.
type scrapeSet struct {
	nodes  []promDoc
	router promDoc
}

// nodeSum adds a metric across the three nodes.
func (s scrapeSet) nodeSum(name string, labels ...string) float64 {
	var total float64
	for _, d := range s.nodes {
		total += d.sum(name, labels...)
	}
	return total
}

// delta returns after − before of a node-summed metric.
func delta(before, after scrapeSet, name string, labels ...string) float64 {
	return after.nodeSum(name, labels...) - before.nodeSum(name, labels...)
}

func routerDelta(before, after scrapeSet, name string, labels ...string) float64 {
	return after.router.sum(name, labels...) - before.router.sum(name, labels...)
}

// procStats are the process's cumulative CPU and allocation counters.
type procStats struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// dirBytes is the total size of the regular files under dir whose names
// end in suffix ("" = all).
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && strings.HasSuffix(path, suffix) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsType names the filesystem holding path, from the longest matching
// mount point in /proc/mounts ("unknown" when it cannot be read).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
