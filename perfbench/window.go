package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opFunc runs one operation for client c, the seq-th of that client. It
// returns whether the op was a write, its latency on the benchmark's
// clock (call to return, result checks excluded) and any failure: an
// error, a rejection, a timeout or a result that disagrees with the
// reference.
type opFunc func(c, seq int) (write bool, d time.Duration, err error)

// tally collects the outcome of every op of a window.
type tally struct {
	mu        sync.Mutex
	reads     []time.Duration
	writes    []time.Duration
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (t *tally) add(write bool, d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	case write:
		t.writes = append(t.writes, d)
	default:
		t.reads = append(t.reads, d)
	}
}

// completed is the number of ops that succeeded.
func (t *tally) completed() int { return len(t.reads) + len(t.writes) }

// runWindow drives clients closed-loop callers for d: each waits for its
// reply before it sends the next op. Ops that start before the deadline
// run to completion, and the window ends when the last caller returns.
func runWindow(d time.Duration, clients int, op opFunc) *tally {
	t := &tally{}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				w, dur, err := op(c, seq)
				t.add(w, dur, err)
			}
		}(c)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return t
}

// quantile returns the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procSnap is a reading of the process counters a window is charged
// with.
type procSnap struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of the process
	wchar      int64         // bytes passed to write(2) and friends
	allocBytes uint64        // cumulative heap allocation
	gcCPU      float64       // cumulative GC CPU seconds
	totalCPU   float64       // cumulative CPU seconds the runtime saw
	host       [8]int64      // /proc/stat cpu line: user nice system idle iowait irq softirq steal
}

// hostShares is how the machine's CPU time went between two snapshots:
// the shares a noisy neighbour shows up in, for reading a run's spread.
func hostShares(before, after procSnap) string {
	var d [8]int64
	var total int64
	for i := range d {
		d[i] = after.host[i] - before.host[i]
		total += d[i]
	}
	if total <= 0 {
		return "unavailable"
	}
	pct := func(i int) float64 { return 100 * float64(d[i]) / float64(total) }
	return fmt.Sprintf("busy %.1f%% (system %.1f%%), iowait %.1f%%, steal %.1f%%",
		pct(0)+pct(1)+pct(2)+pct(5)+pct(6), pct(2), pct(4), pct(7))
}

// readHostCPU reads the machine-wide CPU counters, zero where the
// kernel does not expose them.
func readHostCPU() [8]int64 {
	var out [8]int64
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return out
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line)
	for i := range out {
		if i+1 < len(f) {
			out[i], _ = strconv.ParseInt(string(f[i+1]), 10, 64) // a missing field stays 0
		}
	}
	return out
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot() procSnap {
	s := procSnap{wall: time.Now(), wchar: readWchar(), host: readHostCPU()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := slices.Clone(runtimeSamples)
	rtmetrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.gcCPU = samples[1].Value.Float64()
	s.totalCPU = samples[2].Value.Float64()
	return s
}

// readWchar reads the process's write(2) byte count from /proc, or -1
// where the kernel does not expose it.
func readWchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// maxRSSMB is the process's maximum resident set size so far, set-up
// included, from getrusage.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler samples the resident set size while a window runs and
// keeps the largest sample of each one-second segment. The median of
// those segment peaks is the window's peak RSS: the lifetime maximum
// that getrusage reports is the extreme of every GC cycle's heap
// growth, and moves by a fifth from run to run on the same inputs.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	rssEvery   = 5 * time.Millisecond
	rssSegment = time.Second
)

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var peak float64
		end := time.Now().Add(rssSegment)
		for {
			select {
			case <-r.stop:
				if peak > 0 {
					r.peaks = append(r.peaks, peak)
				}
				return
			case now := <-tick.C:
				peak = max(peak, residentMB())
				if now.After(end) {
					r.peaks = append(r.peaks, peak)
					peak, end = 0, end.Add(rssSegment)
				}
			}
		}
	}()
	return r
}

// finish stops sampling and returns the median segment peak.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	return median(r.peaks)
}

var pageSize = float64(os.Getpagesize())

// residentMB reads the current resident set size from /proc.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	n, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return n * pageSize / (1 << 20)
}
