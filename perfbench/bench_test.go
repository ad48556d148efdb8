package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smallSize runs every workload briefly, with runs just long enough that
// the layer replays write a WAL snapshot (every 256 events).
var smallSize = sizes{hiringRuns: 2, hiringPipelines: 140, crowdPrefix: 300, crowdRate: 80, replayBudget: 200}

// TestWorkloadsReportEveryMetric runs every workload briefly, with and
// without tracing — hiring-fleet too, which BENCHMARK.json leaves out — and
// requires every metric BENCHMARK.json names to be printed with its unit,
// every printed line to carry a unit, and no op to fail.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{root: "..", work: t.TempDir(), seed: 3, measure: time.Second, trace: traced, size: smallSize}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out, name, traced); err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) < 4 && !strings.Contains(l, "failure:") {
					t.Errorf("%s: line without a unit: %q", name, l)
				}
			}
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v failed=%d attempted=%d\n%s", name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if !strings.Contains(out.String(), name+" failed_share 0 share") {
				t.Errorf("%s (trace %v): failed_share is not 0", name, traced)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestUpdateKey(t *testing.T) {
	for in, want := range map[string]string{"+Cleared(ν1)": "ν1", "+Task(ν2, ν1)": "ν2", "-Open(ν7)": "ν7"} {
		if got := updateKey(in); got != want {
			t.Errorf("updateKey(%q) = %q, want %q", in, got, want)
		}
	}
}
