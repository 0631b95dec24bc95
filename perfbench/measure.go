package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile, averaging the two middle values of an
// even-sized sample so that small samples do not snap to one side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapWatcher samples the live heap-object bytes (runtime/metrics, no
// stop-the-world) every 10ms and keeps the high-water mark of each
// heapBucket of wall time. Peak reports the median of those marks: the
// peak heap of a typical stretch of the window, which unlike the
// single highest sample does not hinge on where one GC cycle happened
// to fall.
type heapWatcher struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []uint64 // one high-water mark per bucket; the watcher goroutine owns it until done
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapBucket  = 2 * time.Second
)

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapWatcher() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		bucketEnd := time.Now().Add(heapBucket)
		peak := readHeap()
		for {
			select {
			case <-w.stop:
				w.peaks = append(w.peaks, max(peak, readHeap()))
				return
			case now := <-t.C:
				peak = max(peak, readHeap())
				if now.After(bucketEnd) {
					w.peaks = append(w.peaks, peak)
					peak, bucketEnd = 0, now.Add(heapBucket)
				}
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the median bucket peak in MiB.
func (w *heapWatcher) Peak() float64 {
	close(w.stop)
	<-w.done
	mb := make([]float64, len(w.peaks))
	for i, p := range w.peaks {
		mb[i] = float64(p) / (1 << 20)
	}
	return median(mb)
}

// runtimeCounters is a snapshot of the process-wide runtime counters
// the per-layer metrics are deltas of.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// window measures one stretch of ops: its wall time, heap peaks, and
// the runtime-counter and interner deltas behind the runtime and logic
// per-layer metrics.
type window struct {
	start          time.Time
	hw             *heapWatcher
	rt0, rt1       runtimeCounters
	terms0, terms1 int
	elapsed        time.Duration
	peakMB         float64
}

func startWindow() *window {
	w := &window{terms0: internedTerms(), rt0: readRuntime(), hw: startHeapWatcher()}
	w.start = time.Now()
	return w
}

// end closes the window.
func (w *window) end() {
	w.elapsed = time.Since(w.start)
	w.peakMB = w.hw.Peak()
	w.rt1 = readRuntime()
	w.terms1 = internedTerms()
}

// layerMetrics records the window's runtime and interner figures per
// op, for a window that ran ops ops.
func (w *window) layerMetrics(m metricSet, ops int) {
	n := float64(max(ops, 1))
	m.set("logic.interned_terms_per_op", float64(w.terms1-w.terms0)/n, "count")
	m.set("runtime.gc_cpu_share", ratio(w.rt1.gcCPU-w.rt0.gcCPU, w.rt1.totalCPU-w.rt0.totalCPU), "ratio")
	m.set("runtime.alloc_mb_per_op", float64(w.rt1.allocBytes-w.rt0.allocBytes)/(1<<20)/n, "MiB")
	m.set("runtime.gc_cycles", float64(w.rt1.gcCycles-w.rt0.gcCycles)/n, "count")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to figures.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// span is one traced interval. Spans are kept in memory while the
// benchmark runs and written out at the end.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request ID (whatif-serve), 0 otherwise
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into the program.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration(sp.End - sp.Start)
}

// selfTimes returns, per span name, the total self time in
// milliseconds: each span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]float64)
	for _, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		covered := int64(0)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := sp.Start
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.End, sp.End)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		out[sp.Name] += float64(sp.End-sp.Start-covered) / 1e6
	}
	return out
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
