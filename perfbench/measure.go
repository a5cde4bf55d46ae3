package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Samples live in chunks mapped outside the Go heap: a run keeps
// millions of them, and on the heap they would raise the collector's
// heap goal as they pile up, so the ORB under test would collect less
// often the longer a run went, and its heap, CPU and latency figures
// would drift with the run's length.
const chunkLen = 1 << 17

var metricNames = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// samples is an append-only set of raw durations in nanoseconds. Call
// release when done with it.
type samples struct {
	chunks [][]int64
	n      int
}

func (s *samples) add(ns int64) {
	if s.n == len(s.chunks)*chunkLen {
		b, err := syscall.Mmap(-1, 0, chunkLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("perfbench: mapping a sample chunk: %v", err))
		}
		s.chunks = append(s.chunks, unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), chunkLen))
	}
	s.chunks[s.n/chunkLen][s.n%chunkLen] = ns
	s.n++
}

func (s *samples) at(i int) int64 { return s.chunks[i/chunkLen][i%chunkLen] }

// mergeRange appends o's samples [from, to).
func (s *samples) mergeRange(o *samples, from, to int) {
	for i := from; i < to; i++ {
		s.add(o.at(i))
	}
}

// release unmaps the chunks.
func (s *samples) release() {
	for _, c := range s.chunks {
		_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), chunkLen*8)) // a chunk this package mapped
	}
	s.chunks, s.n = nil, 0
}

// dist is the sorted view of a sample set.
type dist []int64

func (s *samples) sorted() dist {
	out := make(dist, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.at(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the nearest-rank index of quantile q.
func (d dist) rank(q float64) int {
	r := int(math.Ceil(q*float64(len(d)))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// q returns the nearest-rank quantile in nanoseconds (0 when empty).
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return float64(d[d.rank(q)])
}

// above counts the samples strictly after the quantile's rank.
func (d dist) above(q float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - 1 - d.rank(q)
}

// spanSet is a sample set safe for concurrent recording.
type spanSet struct {
	mu sync.Mutex
	s  samples
}

// recorder holds the spans the benchmark records around its calls into
// each layer. A nil recorder records nothing.
type recorder struct {
	mu   sync.Mutex
	sets map[string]*spanSet
}

func newRecorder() *recorder { return &recorder{sets: make(map[string]*spanSet)} }

func (r *recorder) set(name string) *spanSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sets[name]
	if !ok {
		s = &spanSet{}
		r.sets[name] = s
	}
	return s
}

func (r *recorder) add(name string, d time.Duration) {
	if r == nil {
		return
	}
	s := r.set(name)
	s.mu.Lock()
	s.s.add(int64(d))
	s.mu.Unlock()
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sets {
		s.mu.Lock()
		s.s.release()
		s.mu.Unlock()
	}
}

// dist returns the sorted samples recorded under name.
func (r *recorder) dist(name string) dist {
	s := r.set(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.sorted()
}

// resources is a snapshot of the process-wide costs a window is charged.
type resources struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func snapshot() resources {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// sampler records, for each slice of a window, the highest HeapInuse
// (live plus unused bytes of in-use spans) and the CPU time the host
// stole from the machine's virtual CPUs. runtime/metrics reads without
// stopping the world, unlike ReadMemStats.
type sampler struct {
	stop, done chan struct{}
	heap       []int64   // bytes
	steal      []float64 // seconds
}

func startSampler(every time.Duration) *sampler {
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{}), heap: make([]int64, 0, 256), steal: make([]float64, 0, 256)}
	ms := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		ms[i].Name = n
	}
	origin, lastSteal := time.Now(), stolen()
	read := func() {
		metrics.Read(ms)
		v := int64(ms[0].Value.Uint64() + ms[1].Value.Uint64())
		i := int(time.Since(origin) / slice)
		if len(h.heap) <= i {
			// A slice ended: charge it the steal since the last one.
			if len(h.steal) > 0 {
				s := stolen()
				h.steal[len(h.steal)-1], lastSteal = s-lastSteal, s
			}
			for len(h.heap) <= i {
				h.heap, h.steal = append(h.heap, 0), append(h.steal, 0)
			}
		}
		h.heap[i] = max(h.heap[i], v)
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the highest heap sample in bytes
// and, for the first full slices, the heap peak in MB and the steal.
func (h *sampler) finish(full int) (highest int64, heapMB, steal []float64) {
	close(h.stop)
	<-h.done
	for i, p := range h.heap {
		highest = max(highest, p)
		if i < full {
			heapMB, steal = append(heapMB, float64(p)/1e6), append(steal, h.steal[i])
		}
	}
	return highest, heapMB, steal
}

// stolen reads the machine's total steal time from /proc/stat, in
// seconds; zero where the kernel does not report it.
func stolen() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// environment is recorded with every result: later coalescer and udprel
// retransmission figures depend on how late the machine's timers fire.
type environment struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPU          string  `json:"cpu"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	TimerSlackUs float64 `json:"timer_slack_p50_us"`
	Network      string  `json:"network"`
}

func probeEnv(seed int64, commit string) environment {
	return environment{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          cpuModel(),
		Commit:       commit,
		Seed:         seed,
		TimerSlackUs: timerSlack(100*time.Microsecond, 41),
		Network:      "in-process netsim, unshaped profile",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timerSlack is the median overshoot of n timer waits of length d.
func timerSlack(d time.Duration, n int) float64 {
	var s samples
	defer s.release()
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for i := 0; i < n; i++ {
		start := time.Now()
		t.Reset(d)
		<-t.C
		s.add(int64(time.Since(start) - d))
	}
	return s.sorted().q(0.5) / 1e3
}
