package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// segments is how many equal consecutive parts the timed operations are cut
// into. Wall-clock metrics are computed per segment and the run reports the
// best one (the fastest rate, the lowest latency or CPU cost). Interference
// from a shared host only ever slows a segment, and it comes in stretches of
// many seconds: across repeated runs of one program the best segment moved
// 16% where the median segment moved 24% (README.md, "Noise").
const segments = 10

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified. An empty slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cut returns the [lo, hi) index range of part i when n items are split
// into k consecutive parts of equal size (the last parts one shorter when k
// does not divide n).
func cut(n, k, i int) (lo, hi int) { return i * n / k, (i + 1) * n / k }

// opLog is the timeline of a closed-loop sequence of operations issued by
// one caller: ends[i] is when operation i returned, and operation i started
// when operation i-1 returned (start for the first). cpu, when kept, is the
// process CPU time at the same instants.
type opLog struct {
	start    time.Time
	ends     []time.Time
	cpuStart time.Duration
	cpu      []time.Duration
}

// begin starts the timeline now.
func (l *opLog) begin() {
	l.cpuStart = cpuTime()
	l.start = time.Now()
}

// done records that an operation returned now.
func (l *opLog) done() {
	l.ends = append(l.ends, time.Now())
	l.cpu = append(l.cpu, cpuTime())
}

func (l *opLog) n() int { return len(l.ends) }

func (l *opLog) at(i int) time.Time {
	if i == 0 {
		return l.start
	}
	return l.ends[i-1]
}

// latenciesMS returns each operation's latency as its caller saw it.
func (l *opLog) latenciesMS() []float64 {
	out := make([]float64, l.n())
	for i := range out {
		out[i] = ms(l.ends[i].Sub(l.at(i)))
	}
	return out
}

// ratePerS returns operations per second over the fastest of k consecutive
// segments.
func (l *opLog) ratePerS(k int) float64 {
	k = min(k, l.n())
	best := 0.0
	for i := 0; i < k; i++ {
		lo, hi := cut(l.n(), k, i)
		best = max(best, float64(hi-lo)/l.at(hi).Sub(l.at(lo)).Seconds())
	}
	return best
}

// cpuMSPerOp returns the process CPU time per operation over the cheapest of
// k consecutive segments.
func (l *opLog) cpuMSPerOp(k int) float64 {
	k = min(k, l.n())
	cpuAt := func(i int) time.Duration {
		if i == 0 {
			return l.cpuStart
		}
		return l.cpu[i-1]
	}
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		lo, hi := cut(l.n(), k, i)
		best = min(best, ms(cpuAt(hi)-cpuAt(lo))/float64(hi-lo))
	}
	return best
}

// cpuTotal is the process CPU time the whole timeline took.
func (l *opLog) cpuTotal() time.Duration { return l.cpu[l.n()-1] - l.cpuStart }

// perSegment returns the q-quantile of each of k consecutive segments of xs.
func perSegment(xs []float64, k int, q float64) []float64 {
	k = max(min(k, len(xs)), 1)
	out := make([]float64, k)
	for i := range out {
		lo, hi := cut(len(xs), k, i)
		out[i] = quantile(xs[lo:hi], q)
	}
	return out
}

// segmentQuantile is the lowest, over k consecutive segments of xs, of each
// segment's q-quantile.
func segmentQuantile(xs []float64, k int, q float64) float64 {
	return slices.Min(perSegment(xs, k, q))
}

// tailOf reports the tail of a latency sample by the rule the metrics guide
// gives: the highest percentile (capped at p99) with at least ten samples
// beyond it, taken per segment; the best segment is reported. Samples are cut
// into segments of at least 100, at most ten of them.
func tailOf(xs []float64) (value, q float64, k int) {
	k = max(min(len(xs)/100, segments), 1)
	q = max(min(1-10/float64(len(xs)/k), 0.99), 0.5)
	return segmentQuantile(xs, k, q), q, k
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The memory metric is the resident set the run stays under for rssQuantile
// of its time. The single highest moment (VmHWM) depends on whether the
// collector finished before or after one more batch's garbage: on serve_rates
// it landed at 26-27 or 32-35 MB from run to run of one program (a spread of
// up to 25%), where the p90 of the samples stayed within 23.1-25.7 MB.
const (
	rssQuantile = 0.90
	rssEvery    = 20 * time.Millisecond
)

// rssSampler reads the process's resident set size on a fixed period until
// finish.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			// statm: total and resident program size, in pages.
			var total, resident int
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if _, err := fmt.Sscan(string(b), &total, &resident); err == nil {
					s.mb = append(s.mb, float64(resident)*float64(os.Getpagesize())/(1<<20))
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
