package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, which must be
// sorted ascending: the smallest sample with at least a q share of the
// samples at or below it. Exact, unlike a bucketed histogram.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// tailQ lowers a tail quantile q until at least ten of n samples lie
// beyond it, so a reported tail is never one or two stragglers.
func tailQ(n int, q float64) float64 {
	if n > 10 && float64(n)*(1-q) < 10 {
		return 1 - 10/float64(n)
	}
	return q
}

// chunkedQuantile cuts samples, in issue order, into equal chunks of
// at least minChunk samples (at most maxChunks of them), takes each
// chunk's exact q-quantile and returns the median of those. A burst of
// host CPU steal then moves one chunk's figure, not the run's.
func chunkedQuantile(ns []int64, q float64, maxChunks int) float64 {
	const minChunk = 100
	k := len(ns) / minChunk
	if k > maxChunks {
		k = maxChunks
	}
	if k < 1 {
		k = 1
	}
	per := len(ns) / k
	var qs []float64
	for i := 0; i < k; i++ {
		c := sortedMicros(ns[i*per : (i+1)*per])
		qs = append(qs, quantile(c, tailQ(len(c), q)))
	}
	return median(qs)
}

// mark is a point in a timed region: when, the process CPU time then,
// and the operations completed so far.
type mark struct {
	at   time.Time
	cpu  time.Duration
	done int64
}

func markNow(done int64) mark { return mark{time.Now(), cpuTime(), done} }

// chunkRates returns the median, over the chunks between consecutive
// marks, of operations completed per second and of CPU per operation.
func chunkRates(marks []mark) (perSec, cpuPerOp float64) {
	var thr, cpu []float64
	for k := 1; k < len(marks); k++ {
		n := float64(marks[k].done - marks[k-1].done)
		dt := marks[k].at.Sub(marks[k-1].at).Seconds()
		if n <= 0 || dt <= 0 {
			continue
		}
		thr = append(thr, n/dt)
		cpu = append(cpu, float64(marks[k].cpu-marks[k-1].cpu)/n)
	}
	return median(thr), median(cpu)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// sortedMicros converts durations in nanoseconds to sorted
// microseconds.
func sortedMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// memCounters reads cumulative allocated bytes, completed GC cycles and
// the live-plus-unswept heap, without stopping the world.
func memCounters() (alloc, gcs, heap uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// window measures one timed region: wall time, process CPU,
// allocation, GC cycles, and the heap high-water mark sampled every
// millisecond by a goroutine that close stops and waits for.
type window struct {
	start          time.Time
	cpu0           time.Duration
	alloc0, gcs0   uint64
	peak           uint64
	stop, finished chan struct{}
	mu             sync.Mutex
}

// windowStats is what a closed window measured.
type windowStats struct {
	Elapsed    time.Duration
	CPU        time.Duration
	AllocBytes uint64
	GCs        uint64
	PeakHeap   uint64
}

// openWindow collects the set-up garbage, so it is not paid for inside
// the timed region, and starts measuring.
func openWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), finished: make(chan struct{})}
	w.alloc0, w.gcs0, w.peak = memCounters()
	go w.sample()
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) sample() {
	defer close(w.finished)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		_, _, heap := memCounters()
		w.mu.Lock()
		if heap > w.peak {
			w.peak = heap
		}
		w.mu.Unlock()
	}
}

// close ends the window at end (the last operation's completion).
func (w *window) close(end time.Time) windowStats {
	cpu := cpuTime() - w.cpu0
	close(w.stop)
	<-w.finished
	alloc, gcs, heap := memCounters()
	w.mu.Lock()
	peak := w.peak
	w.mu.Unlock()
	if heap > peak {
		peak = heap
	}
	return windowStats{
		Elapsed:    end.Sub(w.start),
		CPU:        cpu,
		AllocBytes: alloc - w.alloc0,
		GCs:        gcs - w.gcs0,
		PeakHeap:   peak,
	}
}

// environment describes the host and build a run measured on.
func environment(root string) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		"cpu=" + cpu,
		"nproc=" + strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"commit=" + commit(root),
		"source_sha256=" + sourceDigest(root),
	}
}

// commit names the checked-out revision when root is a git work tree,
// and "none" otherwise (an exported source tree has no history; its
// source digest identifies it instead).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_DIR="+filepath.Join(root, ".git"))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root
// (build output excluded), so two runs can be shown to measure the
// same program even without a commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
