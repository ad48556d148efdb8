package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// opKind is the class of one client request.
type opKind int

const (
	opSubmit opKind = iota
	opView
	opTransitions
	opExplain
	opCertify
	numKinds
)

var kindNames = [numKinds]string{"submit", "view", "transitions", "explain", "certify"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's op log: what was sent and, once run,
// how long it took. Spans of one op share its index in the log.
type op struct {
	kind opKind
	run  string
	peer string
	rule string
	bind map[string]string
	from int // transitions cursor
	h    int // certify budget
	cas  int // certify case index

	setup bool // issued during set-up: replayed for state, never timed

	// lat is the end-to-end latency: from when the request was due in an
	// open loop, from when it was sent in a closed one. call is the client
	// call alone, late how long the generator took to send once it was free.
	lat, call, late time.Duration
	// end is when the op completed, from the start of the measured phase.
	end time.Duration
	// handler and respBytes come from the benchmark's HTTP wrapper (traced
	// runs only).
	handler   time.Duration
	respBytes int
	// index and updates are what the server answered an accepted submit.
	index   int
	updates []string
	// prefix is the released run length a read was served over, when the
	// load generator can pin it (-1 otherwise); text keeps a sampled read's
	// answer for the output check.
	prefix int
	text   string
	err    error
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailQuantile is the highest of p99, p95 and p90 that has at least ten
// samples beyond it, so a tail figure is never one or two outliers.
func tailQuantile(n int) (float64, string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 200:
		return 0.95, "p95"
	default:
		return 0.90, "p90"
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the figure (0 = a single measurement)
}

// report collects a run's figures and its correctness tallies.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	notes     []string
}

// add records a figure; a later phase's figure replaces an earlier one of
// the same name.
func (r *report) add(name string, value float64, unit string, n int) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, value, unit, n}
			return
		}
	}
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// fail records one failed or wrong operation with its cause.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// latencies adds <prefix>_p50_ms and the supported tail percentile of the
// given latencies.
func (r *report) latencies(prefix string, v []float64) {
	if len(v) == 0 {
		return
	}
	s := sortedCopy(v)
	r.add(prefix+"_p50_ms", quantile(s, 0.5), "ms", len(s))
	q, name := tailQuantile(len(s))
	r.add(prefix+"_"+name+"_ms", quantile(s, q), "ms", len(s))
}

// runtimeSample reads the runtime counters the runtime layer reports.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

// allocBytes is the process's cumulative heap allocation, for per-call
// allocation deltas.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the bytes of live heap objects.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
