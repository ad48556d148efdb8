package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"collabwf/internal/program"
)

// hiring-fleet: many short hiring runs created through POST /runs, driven by
// a closed loop of two clients (one per core). Each client walks whole
// candidate pipelines (clear → cfo_ok → approve → hire) on its own runs, so
// per-request fixed costs dominate: client and JSON, fleet routing,
// admission, the engine on small instances, WAL append and group fsync.
var hiringWorkload = &servingWorkload{
	spec:     "hiring",
	setup:    hiringSetup,
	drive:    hiringDrive,
	check:    hiringCheck,
	classes:  []opKind{opSubmit},
	reqKinds: []opKind{opSubmit},
	// hiring-fleet never certifies and never explains.
	notReached: []string{"decider.", "explainer.report_kb"},
	setups:     5,
}

const hiringClients = 2

func hiringRunID(i int) string { return fmt.Sprintf("r%03d", i) }

func hiringSetup(cfg config, f *fleet, _ *opLog) (any, error) {
	for i := 0; i < cfg.size.hiringRuns; i++ {
		if err := f.cli.CreateRun(context.Background(), hiringRunID(i)); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// hiringPipeline is one candidate's path through the workflow; every step
// after clear binds the fresh candidate ν that clear returned.
var hiringPipeline = []struct{ peer, rule string }{
	{"hr", "clear"}, {"cfo", "cfo_ok"}, {"ceo", "approve"}, {"hr", "hire"},
}

// hiringDrive runs a fixed amount of work, capped at the measured phase's
// length: every run gets the same number of candidate pipelines, visited in
// a seeded order. Fixed work fixes the fleet's final state, so live heap,
// run lengths and recovery time do not depend on how fast the server is.
func hiringDrive(cfg config, f *fleet, log *opLog, _ any, traced bool) (time.Duration, error) {
	perRun := max(1, int(cfg.measure.Seconds()*cfg.size.hiringPipelines)/cfg.size.hiringRuns)
	start := time.Now()
	deadline := start.Add(cfg.measure)
	var wg sync.WaitGroup
	ends := make([]time.Time, hiringClients)
	for c := 0; c < hiringClients; c++ {
		var order []string
		for i := c; i < cfg.size.hiringRuns; i += hiringClients {
			for k := 0; k < perRun; k++ {
				order = append(order, hiringRunID(i))
			}
		}
		rng := rand.New(rand.NewSource(cfg.seed*1009 + int64(c)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var prev time.Time
			for _, run := range order {
				if time.Now().After(deadline) {
					break
				}
				cli := f.cli.ForRun(run)
				var x string
				for _, st := range hiringPipeline {
					o := &op{kind: opSubmit, run: run, peer: st.peer, rule: st.rule, prefix: -1}
					if x != "" {
						o.bind = map[string]string{"x": x}
					}
					ctx := context.Background()
					if idx := log.add(o); traced {
						ctx = withOp(ctx, idx)
					}
					sent := time.Now()
					if !prev.IsZero() {
						o.late = sent.Sub(prev)
					}
					res, err := cli.Submit(ctx, o.peer, o.rule, o.bind)
					prev = time.Now()
					o.call, o.end = prev.Sub(sent), prev.Sub(start)
					o.lat = o.call
					if err != nil {
						o.err = err
						break
					}
					o.index, o.updates = res.Index, res.Updates
					if x == "" {
						x = updateKey(res.Updates[0])
					}
				}
			}
			ends[c] = prev
		}(c)
	}
	wg.Wait()
	return sinceStart(start, ends), nil
}

// updateKey returns the key of a rendered update such as "+Cleared(ν1)".
func updateKey(u string) string {
	i := strings.IndexByte(u, '(')
	j := strings.IndexAny(u[i+1:], ",)")
	return strings.TrimSpace(u[i+1 : i+1+j])
}

// hiringCheck requires each run's final /view, for every peer, to equal an
// in-memory replay of the run's acknowledged submits.
func hiringCheck(cfg config, f *fleet, _ any, _ []*op, runs map[string]*program.Run, rep *report) {
	ctx := context.Background()
	for i := 0; i < cfg.size.hiringRuns; i++ {
		id := hiringRunID(i)
		r := runs[id]
		if r == nil {
			r = program.NewRun(f.spec.Program)
		}
		for _, p := range f.spec.Program.Peers() {
			rep.attempted++
			got, err := f.cli.ForRun(id).View(ctx, string(p))
			if err != nil {
				rep.fail("final view of %s for %s: %v", id, p, err)
				continue
			}
			if want := r.ViewAt(r.Len()-1, p).String(); got != want {
				rep.fail("final view of %s for %s: served %q, replay %q", id, p, got, want)
			}
		}
	}
}

func runHiring(cfg config) (*report, error) {
	return runServing(cfg, hiringWorkload, func(rep *report, ph *phase) {
		accepted := 0
		for _, o := range ph.ops {
			if o.kind == opSubmit && !o.setup && o.err == nil {
				accepted++
			}
		}
		rep.add("submit_per_s", float64(accepted)/ph.elapsed.Seconds(), "1/s", accepted)
	})
}
