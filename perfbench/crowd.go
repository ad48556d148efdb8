package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

// crowd-longrun: one crowdsourcing run (selection-condition views and
// deletions) seeded to a long fixed prefix, then an open loop at a fixed
// offered rate from two sender goroutines over two connections: all four
// peers read /view, tail-poll /transitions and fetch /explain, beside a
// trickle of task pipelines. A long run makes the O(run) costs dominate:
// report rendering, explainer advance, view rebuilds, full-prefix snapshots
// and the recovery rebuild.
var crowdWorkload = &servingWorkload{
	spec:    "crowdsourcing",
	setup:   crowdSetup,
	drive:   crowdDrive,
	check:   crowdCheck,
	classes: []opKind{opSubmit, opView, opTransitions, opExplain},
	// The gated request figures are the cheap reads': their median, and
	// their p99, where the explains, the submits and their garbage collection
	// interfere. Which requests they cover does not depend on the shares
	// below.
	reqKinds:   []opKind{opView, opTransitions},
	notReached: []string{"decider."},
	setups:     3,
}

const crowdRun = "crowd"

var crowdPeers = []string{"platform", "requester", "w0", "w1"}

// The offered mix, as shares of the request rate. It is synthetic: the
// benchmark's own choice, checked against no measured traffic. Explains and
// pipeline steps come ten a second each at 500 requests/s and the rest are
// cheap reads; an explain takes ~25 ms at 2000 events, so the explain sender
// stays a quarter busy, below saturation. With wfbench E17's reader mix (one
// read in eight an explain) at 120 requests/s that sender ran half busy and
// the cheap reads' median varied five times as much between runs; with ten
// explains a second at 100 requests/s, cheap reads took 2.1 ms instead of
// 1.2 ms and varied twice as much: a server left idle between requests
// answers each one late.
const (
	shareSubmit  = 0.02
	shareExplain = 0.02
	shareView    = 0.48
	// the rest tail-polls /transitions
)

// checkSamples is how many pinned /explain and /view answers per run the
// output check compares with a reference computed from scratch.
const checkSamples = 6

// taskGen generates interleaved task pipelines: post → claim → submit →
// accept → pay, sometimes with the other worker claiming and submitting
// too. Its steps depend only on its seed and on the task ids the server
// returns for posts.
type taskGen struct {
	rng    *rand.Rand
	active []*task
}

type task struct {
	id    string
	steps []step
	next  int
}

type step struct {
	peer, rule string
	worker     string // bound as w, for accept and pay
}

func newTaskGen(seed int64) *taskGen { return &taskGen{rng: rand.New(rand.NewSource(seed))} }

func (g *taskGen) newTask() *task {
	w := g.rng.Intn(2)
	me, other := fmt.Sprint(w), fmt.Sprint(1-w)
	t := &task{steps: []step{{peer: "requester", rule: "post"}, {peer: "w" + me, rule: "claim" + me}}}
	rival := g.rng.Intn(3) == 0
	if rival {
		t.steps = append(t.steps, step{peer: "w" + other, rule: "claim" + other})
	}
	t.steps = append(t.steps, step{peer: "w" + me, rule: "submit" + me})
	if rival && g.rng.Intn(2) == 0 {
		t.steps = append(t.steps, step{peer: "w" + other, rule: "submit" + other})
	}
	t.steps = append(t.steps,
		step{peer: "platform", rule: "accept", worker: "w" + me},
		step{peer: "platform", rule: "pay", worker: "w" + me})
	return t
}

// next picks the next submit: a new task or the next step of an active one.
func (g *taskGen) next() (*task, step) {
	if len(g.active) == 0 || (len(g.active) < 4 && g.rng.Intn(4) == 0) {
		g.active = append(g.active, g.newTask())
	}
	i := g.rng.Intn(len(g.active))
	t := g.active[i]
	st := t.steps[t.next]
	t.next++
	if t.next == len(t.steps) {
		g.active = append(g.active[:i], g.active[i+1:]...)
	}
	return t, st
}

func (t *task) bind(st step) map[string]string {
	if st.rule == "post" {
		return nil
	}
	b := map[string]string{"t": t.id}
	if st.worker != "" {
		b["w"] = st.worker
	}
	return b
}

// crowdSubmit sends the generator's next step and records it.
func crowdSubmit(ctx context.Context, f *fleet, gen *taskGen, o *op) error {
	t, st := gen.next()
	o.kind, o.run, o.peer, o.rule, o.bind = opSubmit, crowdRun, st.peer, st.rule, t.bind(st)
	res, err := f.cli.ForRun(crowdRun).Submit(ctx, o.peer, o.rule, o.bind)
	if err != nil {
		return err
	}
	o.index, o.updates = res.Index, res.Updates
	if st.rule == "post" {
		t.id = updateKey(res.Updates[0])
	}
	return nil
}

// crowdSetup creates the run and seeds its prefix; the task generator, with
// the pipelines still open, carries on into the measured phase.
func crowdSetup(cfg config, f *fleet, log *opLog) (any, error) {
	ctx := context.Background()
	if err := f.cli.CreateRun(ctx, crowdRun); err != nil {
		return nil, err
	}
	gen := newTaskGen(cfg.seed)
	for i := 0; i < cfg.size.crowdPrefix; i++ {
		o := &op{setup: true, prefix: -1}
		log.add(o)
		if err := crowdSubmit(ctx, f, gen, o); err != nil {
			return nil, fmt.Errorf("seeding event %d: %w", i, err)
		}
	}
	return gen, nil
}

// slot is one scheduled request of the open loop.
type slot struct {
	due    time.Duration
	kind   opKind
	peer   string
	sample bool // keep the answer for the output check
}

// crowdSchedule lays out the offered load: one request every 1/rate
// seconds, its kind and peer drawn from the seed. Sender 0 sends the
// explains and the pipeline steps, sender 1 the views and transition polls:
// a cheap read never waits behind a 25 ms explain on its connection, and
// each peer's polls, and the pipeline steps, go out in order.
func crowdSchedule(cfg config) [2][]slot {
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 1))
	n := int(cfg.size.crowdRate * cfg.measure.Seconds())
	period := time.Duration(float64(time.Second) / cfg.size.crowdRate)
	sampleP := float64(checkSamples) / (float64(n) * (shareExplain + shareView))
	var out [2][]slot
	for k := 0; k < n; k++ {
		s := slot{due: time.Duration(k) * period, peer: crowdPeers[rng.Intn(len(crowdPeers))]}
		switch x := rng.Float64(); {
		case x < shareSubmit:
			s.kind, s.peer = opSubmit, ""
		case x < shareSubmit+shareExplain:
			s.kind = opExplain
		case x < shareSubmit+shareExplain+shareView:
			s.kind = opView
		default:
			s.kind = opTransitions
		}
		s.sample = (s.kind == opExplain || s.kind == opView) && rng.Float64() < sampleP
		sender := 1
		if s.kind == opSubmit || s.kind == opExplain {
			sender = 0
		}
		out[sender] = append(out[sender], s)
	}
	return out
}

func crowdDrive(cfg config, f *fleet, log *opLog, state any, traced bool) (time.Duration, error) {
	gen := state.(*taskGen)
	base := cfg.size.crowdPrefix
	// subSeq is odd while a submit is in flight; a read sent and answered
	// under the same even value was served over base + subSeq/2 events.
	var subSeq atomic.Int64
	sched := crowdSchedule(cfg)
	cli := f.cli.ForRun(crowdRun)
	start := time.Now()
	var wg sync.WaitGroup
	ends := make([]time.Time, 2)
	for s := range sched {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var free time.Time
			// Each peer's tail-poll cursor; all polls go through sender 1.
			cursor := map[string]int{}
			for _, p := range crowdPeers {
				cursor[p] = base
			}
			for _, sl := range sched[s] {
				due := start.Add(sl.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if free.Before(due) {
					free = due
				}
				o := &op{kind: sl.kind, run: crowdRun, peer: sl.peer, prefix: -1}
				ctx := context.Background()
				if idx := log.add(o); traced {
					ctx = withOp(ctx, idx)
				}
				seq := subSeq.Load()
				sent := time.Now()
				o.late = sent.Sub(free)
				var err error
				switch sl.kind {
				case opSubmit:
					subSeq.Add(1)
					err = crowdSubmit(ctx, f, gen, o)
					subSeq.Add(1)
				case opView:
					o.text, err = cli.View(ctx, o.peer)
				case opExplain:
					o.text, err = cli.Explain(ctx, o.peer)
				case opTransitions:
					o.from = cursor[o.peer]
					var n int
					_, n, err = cli.Transitions(ctx, o.peer, o.from)
					if err == nil && n < o.from {
						err = fmt.Errorf("/transitions len went back from %d to %d", o.from, n)
					}
					if err == nil {
						cursor[o.peer] = n
					}
				}
				free = time.Now()
				o.call, o.lat, o.end, o.err = free.Sub(sent), free.Sub(due), free.Sub(start), err
				if sl.kind == opView || sl.kind == opExplain {
					if after := subSeq.Load(); sl.sample && after == seq && seq%2 == 0 {
						o.prefix = base + int(seq/2)
					} else {
						o.text = ""
					}
				}
			}
			ends[s] = free
		}(s)
	}
	wg.Wait()
	return sinceStart(start, ends), nil
}

// crowdCheck compares a seeded sample of pinned /explain and /view answers
// with core.NewExplainer(...).Report().String() and the view of a fresh
// replay of the same released prefix.
func crowdCheck(cfg config, f *fleet, _ any, ops []*op, runs map[string]*program.Run, rep *report) {
	var samples []*op
	for _, o := range ops {
		if o.prefix >= 0 && o.err == nil {
			samples = append(samples, o)
		}
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].prefix < samples[j].prefix })
	full := runs[crowdRun]
	prog := f.spec.Program
	r := program.NewRun(prog)
	for _, o := range samples {
		rep.attempted++
		if full == nil || o.prefix > full.Len() {
			rep.fail("%s for %s pinned past the replayed run", o.kind, o.peer)
			continue
		}
		for r.Len() < o.prefix {
			e, err := trace.EncodeEvent(full.Event(r.Len())).Decode(prog)
			if err == nil {
				err = r.Append(e)
			}
			if err != nil {
				rep.fail("rebuilding the reference prefix: %v", err)
				return
			}
		}
		var want string
		if o.kind == opExplain {
			want = core.NewExplainer(r, schema.Peer(o.peer)).Report().String()
		} else {
			want = r.ViewAt(r.Len()-1, schema.Peer(o.peer)).String()
		}
		if o.text != want {
			rep.fail("%s for %s over %d events differs from the reference", o.kind, o.peer, o.prefix)
		}
	}
	rep.add("check.pinned_samples", float64(len(samples)), "count", 0)
}

func runCrowd(cfg config) (*report, error) {
	return runServing(cfg, crowdWorkload, func(rep *report, ph *phase) {
		rep.add("offered_per_s", cfg.size.crowdRate, "1/s", 0)
		rep.add("run_events", float64(ph.recEvents), "count", 0)
	})
}
