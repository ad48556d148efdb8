// Command perfbench is collabwf's end-to-end and per-layer benchmark. It
// hosts a server.Manager behind httptest on loopback, configured like
// wfserve's defaults, drives it through internal/client with a seeded
// workload, checks every answer, and prints every metric by name with its
// unit and sample count. The last line of standard output is one JSON object
// with the run's verdict and its contract metrics: the end-to-end set with
// -trace 0, the per-layer set with -trace 1.
//
// A run with -trace 1 additionally repeats the workload with the
// benchmark's own spans on and replays that op log at each layer's public
// entry point (coordinator, engine, explainer, WAL, recovery, deciders), so
// every end-to-end figure can be split into layer self times.
//
// Run it from the root of a checkout through perfbench/run.sh, which builds
// it from that checkout's sources:
//
//	bash perfbench/run.sh --workload crowd-longrun --seed 7 --seconds 10 --trace 0
//
// The workloads and the layer → end-to-end map are described in
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	root    string // checkout root: specs are read from root/examples/specs
	work    string // scratch directory for server data, removed at exit
	seed    int64
	measure time.Duration
	trace   bool
	size    sizes
}

// sizes are the workload dimensions; the self-test shrinks them.
type sizes struct {
	hiringRuns      int     // runs created on hiring-fleet
	hiringPipelines float64 // hiring-fleet pipelines per second of --seconds
	crowdPrefix     int     // events seeded into crowd-longrun's run
	crowdRate       float64 // offered requests per second on crowd-longrun
	replayBudget    int     // most measured submits a layer replay re-executes
}

var fullSize = sizes{hiringRuns: 128, hiringPipelines: 410, crowdPrefix: 2000, crowdRate: 500, replayBudget: 4000}

// The contract metrics, in the order BENCHMARK.json lists them.
var (
	endToEndNames = []string{"setup_s", "req_p50_ms", "req_tail_ms", "req_per_s", "live_heap_mb"}
	perLayerNames = []string{
		"loadgen.late_p99_ms",
		"client.overhead_p50_ms", "client.retries", "client.self_share",
		"http.p50_ms", "http.resp_kb", "http.self_share",
		"coordinator.p50_us", "coordinator.alloc_kb", "coordinator.self_share",
		"engine.self_share", "engine.fire_alloc_kb",
		"explainer.self_share", "explainer.advance_alloc_kb", "explainer.report_kb",
		"wal.self_share", "wal.fsyncs_per_submit", "wal.batch_mean", "wal.bytes_per_event", "wal.snapshot_kb",
		"decider.self_share", "decider.nodes", "decider.states", "decider.cache_hit_share",
		"runtime.gc_cpu_share", "runtime.alloc_kb_per_op",
		"layers.unaccounted_share",
	}
)

var workloads = map[string]func(config) (*report, error){
	"hiring-fleet":  runHiring,
	"crowd-longrun": runCrowd,
	"certify-suite": runCertify,
}

func main() {
	name := flag.String("workload", "", "workload: hiring-fleet, crowd-longrun or certify-suite")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = also run the traced phase and the layer replays, and report per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hiring-fleet|crowd-longrun|certify-suite, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{root: ".", work: work, seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, size: fullSize}
	rep, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, *name, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// print writes every metric as a line, then the contract JSON line.
func (r *report) print(w io.Writer, workload string, traced bool) error {
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", workload, m.name, m.value, m.unit, n)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s failed_share %.6g share n=%d\n", workload, share, r.attempted)
	for _, note := range r.notes {
		fmt.Fprintf(w, "%s failure: %s\n", workload, note)
	}
	names := endToEndNames
	if traced {
		names = perLayerNames
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(names))
	for _, name := range names {
		m, ok := r.lookup(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
		out[name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// phaseDir returns a fresh data directory under the run's scratch space.
func (c config) phaseDir(name string) string {
	return filepath.Join(c.work, strings.ReplaceAll(name, "/", "_"))
}
