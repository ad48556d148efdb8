package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/transparency"
)

// certify-suite: repeated passes of sequential GET /certify calls over a
// fixed list of cases with definite verdicts. The static deciders spend their
// time in rule-candidate enumeration, condition evaluation and the parallel
// search, which neither serving workload reaches; they never touch the WAL
// or the explainer.
type certifyCase struct {
	spec, peer string
	h          int
	want       string
}

const (
	verdictPass           = "pass"
	verdictNotBounded     = "not h-bounded"
	verdictNotTransparent = "not transparent"
)

// Each case takes 0.02–0.7 s at the seed commit, far inside the search
// budget.
var certifyCases = []certifyCase{
	{"hiring", "hr", 1, verdictPass},
	{"hiring", "hr", 2, verdictPass},
	{"hiring", "sue", 1, verdictNotBounded},
	{"hiring", "sue", 2, verdictNotBounded},
	{"review", "writer", 1, verdictPass},
	{"review", "editor", 2, verdictPass},
	{"review", "reader", 1, verdictNotBounded},
	{"review", "reader", 2, verdictNotTransparent},
}

var certifySpecs = []string{"hiring", "review"}

// certifyVerdict reads a certification outcome, from /certify (a 409
// carries the violation) or from Coordinator.Certify.
func certifyVerdict(err error) (string, error) {
	if err == nil {
		return verdictPass, nil
	}
	msg := err.Error()
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.Status != http.StatusConflict {
			return "", err
		}
		msg = ae.Msg
	}
	switch {
	case strings.Contains(msg, "-bounded"):
		return verdictNotBounded, nil
	case strings.Contains(msg, "not transparent"):
		return verdictNotTransparent, nil
	}
	return "", err
}

// certifyPhase is one pass of certify-suite: set-up, then the measured
// passes.
func certifyPhase(cfg config, name string, setups int, traced bool, rep *report) (*phase, []float64, error) {
	ph := &phase{}
	var fleets map[string]*fleet
	closeAll := func() {
		for _, f := range fleets {
			f.close()
		}
	}
	var spans *spanLog
	for i := 0; i < setups; i++ {
		closeAll()
		if traced {
			spans = newSpanLog()
		}
		fleets = make(map[string]*fleet)
		start := time.Now()
		for _, s := range certifySpecs {
			spec, err := loadSpec(cfg.root, s)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			f, err := startFleet(spec, cfg.phaseDir(fmt.Sprintf("%s-setup%d-%s", name, i, s)), cfg.seed, spans)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			fleets[s] = f
			if err := f.cli.Ready(context.Background()); err != nil {
				closeAll()
				return nil, nil, err
			}
		}
		ph.setupTimes = append(ph.setupTimes, time.Since(start).Seconds())
	}
	defer closeAll()

	log := &opLog{}
	rng := rand.New(rand.NewSource(cfg.seed))
	var passes []float64
	runtime.GC()
	ph.rt0 = readRuntime()
	start := time.Now()
	deadline := start.Add(cfg.measure)
	var prev time.Time
	for len(passes) < 2 || time.Now().Before(deadline) {
		passStart := time.Now()
		for _, ci := range rng.Perm(len(certifyCases)) {
			c := certifyCases[ci]
			o := &op{kind: opCertify, run: c.spec, peer: c.peer, h: c.h, cas: ci, prefix: -1}
			ctx := context.Background()
			if idx := log.add(o); traced {
				ctx = withOp(ctx, idx)
			}
			sent := time.Now()
			if !prev.IsZero() {
				o.late = sent.Sub(prev)
			}
			got, err := certifyVerdict(fleets[c.spec].cli.Certify(ctx, c.peer, c.h))
			prev = time.Now()
			o.call = prev.Sub(sent)
			o.lat = o.call
			switch {
			case err != nil:
				o.err = err
			case got != c.want:
				o.err = fmt.Errorf("certify %s %s h=%d: verdict %q, want %q", c.spec, c.peer, c.h, got, c.want)
			}
		}
		passes = append(passes, time.Since(passStart).Seconds())
	}
	ph.elapsed = prev.Sub(start)
	ph.rt1 = readRuntime()
	ph.heapMB = liveHeapMB()
	ph.ops = log.ops
	if traced {
		spans.fill(ph.ops)
	}
	for _, o := range ph.ops {
		rep.attempted++
		if o.err != nil {
			rep.fail("%v", o.err)
		}
	}
	for _, f := range fleets {
		ph.retries += f.cli.Retries()
	}
	if ph.retries > 0 {
		rep.fail("client retried %d attempts", ph.retries)
	}
	return ph, passes, nil
}

// replayCertify replays the first passes of the traced op log against a
// fresh durable coordinator (Coordinator.Certify) and the deciders
// themselves (core.CheckBounded, then core.CheckTransparent).
func replayCertify(cfg config, ops []*op, rep *report) ([]*layerRec, error) {
	recs := make([]*layerRec, len(ops))
	coords := make(map[string]*server.Coordinator)
	specs := make(map[string]*parse.Spec)
	defer func() {
		for _, c := range coords {
			c.Close()
		}
	}()
	for _, s := range certifySpecs {
		spec, err := loadSpec(cfg.root, s)
		if err != nil {
			return nil, err
		}
		dc := durability(obs.NewRegistry())
		dc.Dir = cfg.phaseDir("replay-certify-" + s)
		defer os.RemoveAll(dc.Dir)
		c, err := server.NewDurable(spec.Name, spec.Program, dc)
		if err != nil {
			return nil, err
		}
		specs[s], coords[s] = spec, c
	}
	var st transparency.Stats
	var bounded, transp time.Duration
	ctx := context.Background()
	limit := min(len(ops), certifyReplayPasses*len(certifyCases))
	for i := range recs {
		recs[i] = &layerRec{}
		if i >= limit {
			continue
		}
		o := ops[i]
		p, prog := schema.Peer(o.peer), specs[o.run].Program
		a0, t0 := allocBytes(), time.Now()
		err := coords[o.run].Certify(ctx, p, o.h, core.Options{})
		recs[i].t[lCoordinator], recs[i].alloc[lCoordinator] = time.Since(t0), allocBytes()-a0
		if got, verr := certifyVerdict(err); verr != nil || got != certifyCases[o.cas].want {
			return nil, fmt.Errorf("replayed certify %s %s h=%d: verdict %q, %v", o.run, o.peer, o.h, got, verr)
		}
		t0 = time.Now()
		bv, err := core.CheckBounded(prog, p, o.h, core.Options{Stats: &st})
		tb := time.Since(t0)
		var tt time.Duration
		if err == nil && bv == nil {
			t0 = time.Now()
			_, err = core.CheckTransparent(prog, p, o.h, core.Options{Stats: &st})
			tt = time.Since(t0)
		}
		if err != nil {
			return nil, err
		}
		recs[i].t[lDecider] = tb + tt
		recs[i].replayed = true
		bounded += tb
		transp += tt
	}
	passes := float64(limit) / float64(len(certifyCases))
	rep.add("decider.bounded_s", bounded.Seconds()/passes, "s", limit)
	rep.add("decider.transparent_s", transp.Seconds()/passes, "s", limit)
	rep.add("decider.nodes", float64(st.Nodes)/passes, "count", 0)
	rep.add("decider.states", float64(st.States)/passes, "count", 0)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		rep.add("decider.cache_hit_share", float64(st.CacheHits)/float64(n), "share", int(n))
	}
	return recs, nil
}

// certifyReplayPasses is how many passes of the traced log the layer
// replay re-executes: each replayed layer costs about as much as a pass.
const certifyReplayPasses = 2

func runCertify(cfg config) (*report, error) {
	rep := &report{}
	if !cfg.trace {
		ph, passes, err := certifyPhase(cfg, "e2e", certifySetups, false, rep)
		if err != nil {
			return nil, err
		}
		certifyEndToEnd(rep, ph, passes)
		return rep, nil
	}
	plain, passes, err := certifyPhase(cfg, "plain", 1, false, rep)
	if err != nil {
		return nil, err
	}
	certifyEndToEnd(rep, plain, passes)
	traced, _, err := certifyPhase(cfg, "traced", 1, true, rep)
	if err != nil {
		return nil, err
	}
	recs, err := replayCertify(cfg, traced.ops, rep)
	if err != nil {
		return nil, err
	}
	layerReport(rep, plain, traced, recs, []opKind{opCertify}, []string{"engine.", "explainer.", "wal."})
	return rep, nil
}

// certifySetups is larger than the serving workloads' count because one
// set-up here, parsing both specs and starting both servers, takes a few
// milliseconds and varies with the disk's fsync latency.
const certifySetups = 31

// certifyEndToEnd reports the request figures per pass: the cases differ
// thirtyfold in cost, so a quantile over pooled calls would jump between
// cases. req_p50_ms is the median over passes of the mean call latency,
// req_tail_ms the median over passes of the slowest call.
func certifyEndToEnd(rep *report, ph *phase, passes []float64) {
	var means, slowest []float64
	for p := 0; p+len(certifyCases) <= len(ph.ops); p += len(certifyCases) {
		lat := make([]float64, 0, len(certifyCases))
		for _, o := range ph.ops[p : p+len(certifyCases)] {
			lat = append(lat, ms(o.lat))
		}
		means = append(means, mean(lat))
		slowest = append(slowest, quantile(sortedCopy(lat), 1))
	}
	calls := latencies(ph.ops)
	rep.add("setup_s", median(ph.setupTimes), "s", len(ph.setupTimes))
	rep.add("req_p50_ms", median(means), "ms", len(means))
	rep.add("req_tail_ms", median(slowest), "ms", len(slowest))
	rep.add("req_per_s", float64(len(calls))/ph.elapsed.Seconds(), "1/s", len(calls))
	rep.add("live_heap_mb", ph.heapMB, "MB", 0)
	rep.latencies("certify", calls)
	rep.add("certify_pass_s", median(passes), "s", len(passes))
	lateness(rep, ph.ops)
}
