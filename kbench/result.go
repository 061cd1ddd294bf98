package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result gathers what one pass of a workload measured and checked. A
// pass fills it from one goroutine.
type result struct {
	values    map[string]float64
	samples   map[string][]float64
	notes     []note
	digests   []note
	attempted int
	failed    int
	problems  []string
}

// note is a named figure that is printed and kept in the result
// document but is not one of BENCHMARK.json's metrics.
type note struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value,omitempty"`
	Text  string  `json:"text,omitempty"`
	N     int     `json:"n,omitempty"` // samples behind a percentile
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string][]float64{}}
}

// set reports metric name as v, keeping every sample it came from.
func (r *result) set(name string, v float64, samples ...float64) {
	r.values[name] = v
	if len(samples) > 0 {
		r.samples[name] = samples
	}
}

// setMedian reports the median of samples as metric name.
func (r *result) setMedian(name string, samples []float64) {
	r.set(name, median(samples), samples...)
}

func (r *result) note(name, unit string, v float64, n int) {
	r.notes = append(r.notes, note{Name: name, Unit: unit, Value: v, N: n})
}

// tail notes the q-percentile of xs under name when at least ten
// samples lie beyond it, and says so when they do not.
func (r *result) tail(name string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		r.note(name, "ms", v, len(xs))
		return
	}
	r.notes = append(r.notes, note{Name: name, Unit: "ms", Text: "not reported: fewer than 10 samples beyond it", N: len(xs)})
}

func (r *result) digest(name, hex string) {
	r.digests = append(r.digests, note{Name: name, Text: hex})
}

// record counts one attempted operation; the first non-nil error
// among errs marks it failed.
func (r *result) record(op string, errs ...error) bool {
	r.attempted++
	if err := errors.Join(errs...); err != nil {
		r.failed++
		r.problems = append(r.problems, op+": "+err.Error())
		return false
	}
	return true
}

// failFrac is failed operations over attempted ones.
func (r *result) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// host identifies the machine and build behind a result, so results
// from different hosts are not compared as if they were one.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resetPeakRSS starts a new peak resident set: from here on the
// kernel's high-water mark (VmHWM) counts from the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks is the CPU time, in clock ticks, the hypervisor has
// taken from this machine's CPUs so far (0 where /proc/stat has none).
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// refSink keeps hostRefNs's loop from being optimised away.
var refSink uint64

// hostRefNs times a fixed loop of integer steps and table updates in
// 1 MiB, about 10 ms of work, and returns its nanoseconds per iteration.
// The loop does not touch the program under test, so it tells how fast
// the host ran at that moment.
func hostRefNs() float64 {
	const iters = 4_000_000
	table := make([]uint64, 1<<17)
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<17-1)] += x
	}
	d := time.Since(t0)
	refSink += table[x&(1<<17-1)]
	return float64(d.Nanoseconds()) / iters
}

// finite rejects a value JSON cannot carry.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	return nil
}
