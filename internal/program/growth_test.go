package program_test

import (
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/query"
)

// crowdRun appends crowdsourcing task pipelines — post, claim, (a rival
// claim), submit, accept, pay — interleaved over a few open tasks, with
// every variable bound up front so only Run.Append runs.
type crowdRun struct {
	r      *program.Run
	rng    *rand.Rand
	active [][]*program.Event
}

func (c *crowdRun) fresh() data.Value { return c.r.NextFresh() }

func (c *crowdRun) event(name string, val query.Valuation) *program.Event {
	return program.MustEvent(c.r.Prog.Rule(name), val)
}

func (c *crowdRun) pipeline() []*program.Event {
	t, d := c.fresh(), c.fresh()
	w := c.rng.Intn(2)
	me, other := data.Value([]string{"w0", "w1"}[w]), data.Value([]string{"w0", "w1"}[1-w])
	claim, work := c.fresh(), c.fresh()
	evs := []*program.Event{
		c.event("post", query.Valuation{"t": t, "d": d}),
		c.event("claim"+string(me[1:]), query.Valuation{"c": claim, "t": t, "d": d}),
	}
	if c.rng.Intn(3) == 0 {
		evs = append(evs, c.event("claim"+string(other[1:]), query.Valuation{"c": c.fresh(), "t": t, "d": d}))
	}
	return append(evs,
		c.event("submit"+string(me[1:]), query.Valuation{"x": work, "c": claim, "t": t}),
		c.event("accept", query.Valuation{"t": t, "x": work, "w": me}),
		c.event("pay", query.Valuation{"y": c.fresh(), "t": t, "w": me}))
}

// appendN appends n more events.
func (c *crowdRun) appendN(t *testing.T, n int) {
	for k := 0; k < n; k++ {
		if len(c.active) == 0 || (len(c.active) < 4 && c.rng.Intn(4) == 0) {
			c.active = append(c.active, c.pipeline())
		}
		i := c.rng.Intn(len(c.active))
		if err := c.r.Append(c.active[i][0]); err != nil {
			t.Fatal(err)
		}
		if c.active[i] = c.active[i][1:]; len(c.active[i]) == 0 {
			c.active = append(c.active[:i], c.active[i+1:]...)
		}
	}
}

// allocsPerAppend returns the heap bytes allocated per Run.Append over the
// next n events.
func (c *crowdRun) allocsPerAppend(t *testing.T, n int) float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	c.appendN(t, n)
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()-before) / float64(n)
}

// The bytes a Run.Append allocates must not grow with the run: a step
// copies the O(log n) paths it changes and derives the acting peer's view
// from its previous one, so an event at 2000 costs about what one at 250
// does. Counting allocated bytes, not time, keeps the verdict independent
// of machine load.
func TestAppendAllocationFlat(t *testing.T) {
	src, err := os.ReadFile("../../examples/specs/crowdsourcing.wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	c := &crowdRun{r: program.NewRun(spec.Program), rng: rand.New(rand.NewSource(1))}
	const window = 200
	c.appendN(t, 250)
	small := c.allocsPerAppend(t, window)
	c.appendN(t, 2000-c.r.Len())
	large := c.allocsPerAppend(t, window)
	t.Logf("bytes per Append: %.0f at 250 events, %.0f at 2000", small, large)
	if large > 2*small {
		t.Fatalf("Append allocates %.0f B per event at 2000 events, %.1fx the %.0f B at 250", large, large/small, small)
	}
}
