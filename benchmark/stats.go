package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place). An empty sample reads as NaN, which the report treats as a
// missing metric.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the samples between the first and
// third quartiles (xs is sorted in place): robust to outliers like the
// median, but stable where the samples fall into two close modes, which
// makes the median jump between them from run to run.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

const mib = 1 << 20

// runtimeSample is one read of the Go runtime counters the benchmark
// reports per phase: GC cycles, the GC pause and scheduling latency
// histograms.
type runtimeSample struct {
	gcCycles uint64
	gcPauses *metrics.Float64Histogram
	schedLat *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return runtimeSample{
		gcCycles: ss[0].Value.Uint64(),
		gcPauses: ss[1].Value.Float64Histogram(),
		schedLat: ss[2].Value.Float64Histogram(),
	}
}

// allocBytes is the cumulative heap allocation counter alone: cheap
// enough to read around a single call.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// histDelta returns the bucket counts of b minus a (same boundaries).
func histDelta(a, b *metrics.Float64Histogram) []uint64 {
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// histQuantile is the q-quantile of the counts in d over the buckets of
// h, read as each bucket's upper bound (the lower bound for the open
// last bucket).
func histQuantile(h *metrics.Float64Histogram, d []uint64, q float64) float64 {
	var total uint64
	for _, c := range d {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// histSum approximates the total of the values counted in d by each
// bucket's midpoint.
func histSum(h *metrics.Float64Histogram, d []uint64) float64 {
	var sum float64
	for i, c := range d {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// phaseRuntime is what the runtime did during one phase.
type phaseRuntime struct {
	gcCycles  uint64
	gcPauseMs float64
	schedP99  float64 // µs
}

func runtimeBetween(a, b runtimeSample) phaseRuntime {
	pauses := histDelta(a.gcPauses, b.gcPauses)
	lat := histDelta(a.schedLat, b.schedLat)
	return phaseRuntime{
		gcCycles:  b.gcCycles - a.gcCycles,
		gcPauseMs: histSum(b.gcPauses, pauses) * 1e3,
		schedP99:  histQuantile(b.schedLat, lat, 0.99) * 1e6,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU line of /proc/stat: the steal
// ticks and the total over all states. ok is false where /proc/stat is
// missing (non-Linux).
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
