package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

// opLog is a workload's op log. An op's index is assigned when it is sent,
// so its spans can be filed under it.
type opLog struct {
	mu  sync.Mutex
	ops []*op
}

func (l *opLog) add(o *op) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, o)
	return len(l.ops) - 1
}

// servingWorkload is what distinguishes hiring-fleet from crowd-longrun;
// set-up, measurement, crash and recovery are shared.
type servingWorkload struct {
	spec string
	// setup creates the runs (and seeds any prefix) through the client; what
	// it returns is handed to drive.
	setup func(cfg config, f *fleet, log *opLog) (any, error)
	// drive runs the measured phase and returns its wall time.
	drive func(cfg config, f *fleet, log *opLog, state any, traced bool) (time.Duration, error)
	// check verifies the measured phase's answers against the replayed runs.
	check func(cfg config, f *fleet, state any, ops []*op, runs map[string]*program.Run, rep *report)
	// classes are the op kinds the workload times.
	classes []opKind
	// reqKinds are the ops req_p50_ms and req_tail_ms are taken over.
	reqKinds []opKind
	// notReached are the per-layer metrics (by name or "layer." prefix) of
	// layers this workload never reaches; they read 0.
	notReached []string
	// setups is how many set-ups a run makes; setup_s is their median.
	setups int
}

// sinceStart is how long the measured phase ran: until the last of its
// senders finished.
func sinceStart(start time.Time, ends []time.Time) time.Duration {
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start)
}

// phase is one pass of a serving workload: set-up, measured load, output
// checks, then crash and recovery with the durability check.
type phase struct {
	setupTimes []float64
	ops        []*op
	elapsed    time.Duration
	heapMB     float64
	rt0, rt1   runtimeSample
	recoverS   float64
	recEvents  int
	runs       map[string]*program.Run // replay of the acknowledged submits
	// scrape0 and scrape1 are the server's /metrics before and after the
	// measured phase.
	scrape0, scrape1 map[string]float64
	retries          int64 // attempts the client retried
}

func runPhase(cfg config, wl *servingWorkload, name string, setups int, traced bool, rep *report) (*phase, error) {
	spec, err := loadSpec(cfg.root, wl.spec)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	var f *fleet
	var log *opLog
	var state any
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		var spans *spanLog
		if traced {
			spans = newSpanLog()
		}
		log = &opLog{}
		start := time.Now()
		f, err = startFleet(spec, cfg.phaseDir(fmt.Sprintf("%s-setup%d", name, i)), cfg.seed, spans)
		if err != nil {
			return nil, err
		}
		if state, err = wl.setup(cfg, f, log); err != nil {
			f.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupTimes = append(ph.setupTimes, time.Since(start).Seconds())
	}
	defer f.close()

	if ph.scrape0, err = f.scrape(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	runtime.GC()
	ph.rt0 = readRuntime()
	ph.elapsed, err = wl.drive(cfg, f, log, state, traced)
	if err != nil {
		return nil, err
	}
	ph.rt1 = readRuntime()
	ph.heapMB = liveHeapMB()
	ph.ops = log.ops
	if traced {
		f.spans.fill(ph.ops)
	}
	for _, o := range ph.ops {
		if !o.setup {
			rep.attempted++
			if o.err != nil {
				rep.fail("%s %s %s: %v", o.kind, o.run, o.peer, o.err)
			}
		}
	}
	if ph.retries = f.cli.Retries(); ph.retries > 0 {
		rep.fail("client retried %d attempts", ph.retries)
	}
	if ph.scrape1, err = f.scrape(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	ph.runs = replayAcked(spec, ph.ops, rep)
	wl.check(cfg, f, state, ph.ops, ph.runs, rep)
	return ph, ph.crashAndRecover(cfg, spec, f, name, traced, rep)
}

// replayAcked replays every acknowledged submit into an in-memory run per
// workflow run, checking that each lands at the index the server gave it
// with the same updates.
func replayAcked(spec *parse.Spec, ops []*op, rep *report) map[string]*program.Run {
	byRun := make(map[string][]*op)
	for _, o := range ops {
		if o.kind == opSubmit && o.err == nil {
			byRun[o.run] = append(byRun[o.run], o)
		}
	}
	runs := make(map[string]*program.Run, len(byRun))
	for id, subs := range byRun {
		sort.Slice(subs, func(i, j int) bool { return subs[i].index < subs[j].index })
		r := program.NewRun(spec.Program)
		for _, o := range subs {
			rep.attempted++
			if o.index != r.Len() {
				rep.fail("run %s: acknowledged index %d, replay is at %d", id, o.index, r.Len())
				break
			}
			e, err := r.FireRule(o.rule, values(o.bind))
			if err != nil {
				rep.fail("run %s: replaying %s: %v", id, o.rule, err)
				break
			}
			if got := updateStrings(e); !reflect.DeepEqual(got, o.updates) {
				rep.fail("run %s event %d: served updates %v, replay %v", id, o.index, o.updates, got)
			}
		}
		runs[id] = r
	}
	return runs
}

func values(b map[string]string) map[string]data.Value {
	out := make(map[string]data.Value, len(b))
	for k, v := range b {
		out[k] = data.Value(v)
	}
	return out
}

func updateStrings(e *program.Event) []string {
	out := make([]string, len(e.Updates))
	for i, u := range e.Updates {
		out[i] = u.String()
	}
	return out
}

// answers are every peer's /view and /explain of every run.
type answers map[string]string

func readAll(ctx context.Context, f *fleet, peers []schema.Peer) (answers, error) {
	out := make(answers)
	for _, r := range f.mgr.Runs() {
		cli := f.cli.ForRun(r.ID)
		for _, p := range peers {
			v, err := cli.View(ctx, string(p))
			if err != nil {
				return nil, err
			}
			x, err := cli.Explain(ctx, string(p))
			if err != nil {
				return nil, err
			}
			out[r.ID+"/view/"+string(p)] = v
			out[r.ID+"/explain/"+string(p)] = x
		}
	}
	return out, nil
}

// crashAndRecover crashes every coordinator, truncates each WAL to its
// durable offset, times the recovery of a ready manager, and then requires
// every acknowledged submit to be present and every answer to be
// byte-identical to the one served before the crash.
func (ph *phase) crashAndRecover(cfg config, spec *parse.Spec, f *fleet, name string, traced bool, rep *report) error {
	ctx := context.Background()
	peers := spec.Program.Peers()
	before, err := readAll(ctx, f, peers)
	if err != nil {
		return fmt.Errorf("reading answers before the crash: %w", err)
	}
	if err := f.crash(); err != nil {
		return err
	}
	if traced {
		if err := replayRecovery(cfg, spec, f.dir, rep); err != nil {
			return fmt.Errorf("recovery replay: %w", err)
		}
	}
	start := time.Now()
	m, err := newManager(spec, f.dir)
	if err != nil {
		return fmt.Errorf("recovering: %w", err)
	}
	ph.recoverS = time.Since(start).Seconds()
	g := serve(spec, f.dir, m, cfg.seed, nil)
	defer g.stopListener()
	defer m.Close()

	for id, r := range ph.runs {
		c, ok := m.Run(id)
		if !ok {
			rep.fail("run %s missing after recovery", id)
			continue
		}
		events := c.Trace().Events
		ph.recEvents += len(events)
		for i := 0; i < r.Len(); i++ {
			rep.attempted++
			if i >= len(events) || !reflect.DeepEqual(events[i], trace.EncodeEvent(r.Event(i))) {
				rep.fail("run %s: acknowledged event %d lost or changed by recovery", id, i)
			}
		}
	}
	after, err := readAll(ctx, g, peers)
	if err != nil {
		return fmt.Errorf("reading answers after recovery: %w", err)
	}
	keys := make([]string, 0, len(before))
	for k := range before {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.attempted++
		if after[k] != before[k] {
			rep.fail("%s differs after recovery", k)
		}
	}
	if len(after) != len(before) {
		rep.fail("%d answers before the crash, %d after", len(before), len(after))
	}
	return nil
}

// latencies returns the latencies in ms of the measured ops of the given
// kinds (all kinds when none are given).
func latencies(ops []*op, kinds ...opKind) []float64 {
	var out []float64
	for _, o := range ops {
		if o.setup || o.err != nil || !hasKind(kinds, o.kind) {
			continue
		}
		out = append(out, ms(o.lat))
	}
	return out
}

func hasKind(kinds []opKind, k opKind) bool {
	if len(kinds) == 0 {
		return true
	}
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// windows is how many equal slices of the measured phase the request
// figures are taken over; each figure is the median over slices, so a
// stall of the shared host that hits one slice barely moves it.
const windows = 5

// reqTail is the quantile req_tail_ms reports. A slice of a full-size
// serving run holds over a thousand requests of the workload's reqKinds, so
// at least ten lie beyond it.
const reqTail = 0.99

// endToEnd adds the contract's end-to-end metrics and the per-op figures.
func endToEnd(rep *report, ph *phase, wl *servingWorkload) {
	rep.add("setup_s", median(ph.setupTimes), "s", len(ph.setupTimes))
	win := make([][]float64, windows)
	counts := make([]int, windows)
	n, all := 0, 0
	for _, o := range ph.ops {
		if o.setup || o.err != nil {
			continue
		}
		w := min(int(int64(o.end)*windows/int64(ph.elapsed)), windows-1)
		counts[w]++
		all++
		if hasKind(wl.reqKinds, o.kind) {
			win[w] = append(win[w], ms(o.lat))
			n++
		}
	}
	var p50, tails, rates []float64
	for w, v := range win {
		s := sortedCopy(v)
		p50 = append(p50, quantile(s, 0.5))
		tails = append(tails, quantile(s, reqTail))
		rates = append(rates, float64(counts[w])/(ph.elapsed.Seconds()/windows))
	}
	rep.add("req_p50_ms", median(p50), "ms", n)
	rep.add("req_tail_ms", median(tails), "ms", n)
	rep.add("req_per_s", median(rates), "1/s", all)
	rep.add("live_heap_mb", ph.heapMB, "MB", 0)
	for _, k := range wl.classes {
		rep.latencies(k.String(), latencies(ph.ops, k))
	}
	lateness(rep, ph.ops)
}

// runServing runs a serving workload: with spans off, one phase after the
// median of several set-ups; traced, an untraced phase for the runtime
// deltas and the tracing overhead, then the traced phase and the layer
// replays of its op log.
func runServing(cfg config, wl *servingWorkload, extra func(*report, *phase)) (*report, error) {
	rep := &report{}
	setups := wl.setups
	if cfg.trace {
		setups = 1
	}
	plain, err := runPhase(cfg, wl, "e2e", setups, false, rep)
	if err != nil {
		return nil, err
	}
	endToEnd(rep, plain, wl)
	rep.add("recover_s", plain.recoverS, "s", 0)
	extra(rep, plain)
	if !cfg.trace {
		return rep, nil
	}
	spec, err := loadSpec(cfg.root, wl.spec)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(cfg, wl, "traced", 1, true, rep)
	if err != nil {
		return nil, err
	}
	recs, err := replayServing(cfg, spec, traced.ops, rep)
	if err != nil {
		return nil, err
	}
	walCounts(rep, plain.scrape0, plain.scrape1)
	layerReport(rep, plain, traced, recs, wl.classes, wl.notReached)
	return rep, nil
}
