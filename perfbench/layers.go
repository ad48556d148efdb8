package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// The layers, outermost first. Each op's time at a layer includes the
// layers below it on the op's path; its self time is that time minus the
// next lower layers' times for the same op.
const (
	lClient = iota
	lHTTP
	lCoordinator
	lEngine
	lExplainer
	lWAL
	lDecider
	numLayers
)

var layerNames = [numLayers]string{"client", "http", "coordinator", "engine", "explainer", "wal", "decider"}

// layerRec is one op's replayed time and allocation at each layer below
// http. A zero time means the layer is not on the op's path.
type layerRec struct {
	replayed bool
	t        [numLayers]time.Duration
	alloc    [numLayers]uint64
	// walWait is the part of t[lWAL] spent waiting for the commit (fsync).
	walWait     time.Duration
	reportBytes int
}

// selfTimes splits an op's end-to-end latency into layer self times, each
// clipped at zero.
func selfTimes(o *op, r *layerRec) [numLayers]time.Duration {
	var s [numLayers]time.Duration
	below := r.t[lEngine] + r.t[lExplainer] + r.t[lWAL] + r.t[lDecider]
	s[lClient] = o.call - o.handler
	s[lHTTP] = o.handler - r.t[lCoordinator]
	s[lCoordinator] = r.t[lCoordinator] - below
	for _, l := range []int{lEngine, lExplainer, lWAL, lDecider} {
		s[l] = r.t[l]
	}
	for i := range s {
		if s[i] < 0 {
			s[i] = 0
		}
	}
	return s
}

// replayServing replays the traced op log at the coordinator, engine,
// explainer and WAL entry points. Runs are taken in a seeded order until the
// measured submits replayed reach the budget; set-up ops are replayed for
// state but not recorded.
func replayServing(cfg config, spec *parse.Spec, ops []*op, rep *report) ([]*layerRec, error) {
	byRun := make(map[string][]int)
	var ids []string
	for i, o := range ops {
		if o.err != nil {
			continue
		}
		if _, ok := byRun[o.run]; !ok {
			ids = append(ids, o.run)
		}
		byRun[o.run] = append(byRun[o.run], i)
	}
	sort.Strings(ids)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	recs := make([]*layerRec, len(ops))
	for i := range recs {
		recs[i] = &layerRec{}
	}
	ws := &walStats{}
	budget := cfg.size.replayBudget
	for _, id := range ids {
		if budget <= 0 {
			break
		}
		idx := byRun[id]
		for _, i := range idx {
			if ops[i].kind == opSubmit && !ops[i].setup {
				budget--
			}
		}
		if err := replayCoordinator(cfg, spec, id, ops, idx, recs); err != nil {
			return nil, fmt.Errorf("coordinator replay of %s: %w", id, err)
		}
		if err := replayBelow(cfg, spec, id, ops, idx, recs, ws); err != nil {
			return nil, fmt.Errorf("layer replay of %s: %w", id, err)
		}
	}
	ws.report(rep)
	return recs, nil
}

func replayCoordinator(cfg config, spec *parse.Spec, id string, ops []*op, idx []int, recs []*layerRec) error {
	dir := cfg.phaseDir("replay-coordinator-" + id)
	defer os.RemoveAll(dir)
	dc := durability(obs.NewRegistry())
	dc.Dir = dir
	c, err := server.NewDurable(spec.Name, spec.Program, dc)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	for _, i := range idx {
		o := ops[i]
		a0, t0 := allocBytes(), time.Now()
		switch o.kind {
		case opSubmit:
			var res *server.SubmitResult
			res, err = c.SubmitCtx(ctx, schema.Peer(o.peer), o.rule, values(o.bind))
			if err == nil && res.Index != o.index {
				err = fmt.Errorf("replayed %s landed at %d, served at %d", o.rule, res.Index, o.index)
			}
		case opView:
			_, err = c.View(schema.Peer(o.peer))
		case opTransitions:
			_, _, err = c.TransitionsAndLen(schema.Peer(o.peer), o.from)
		case opExplain:
			var r *core.Report
			if r, err = c.Explain(schema.Peer(o.peer)); err == nil {
				_ = r.String()
			}
		}
		d, a := time.Since(t0), allocBytes()-a0
		if err != nil {
			return err
		}
		if !o.setup {
			recs[i].replayed = true
			recs[i].t[lCoordinator], recs[i].alloc[lCoordinator] = d, a
		}
	}
	return nil
}

// walStats accumulates the WAL layer's replay figures across runs.
type walStats struct {
	snapMS, snapKB []float64
	bytes, records int64
}

func (w *walStats) report(rep *report) {
	if w.records > 0 {
		rep.add("wal.bytes_per_event", float64(w.bytes)/float64(w.records), "B", int(w.records))
	}
	if len(w.snapMS) > 0 {
		rep.add("wal.snapshot_ms", median(w.snapMS), "ms", len(w.snapMS))
		rep.add("wal.snapshot_kb", median(w.snapKB), "kB", len(w.snapKB))
	}
}

// replayBelow replays the accepted events of one run at the engine
// (program.Run.FireRule), the explainer (SyncTo per peer after each event,
// Report().String() at each explain) and the WAL (AppendBuffered +
// Commit.Wait per record, WriteSnapshot every 256 events).
func replayBelow(cfg config, spec *parse.Spec, id string, ops []*op, idx []int, recs []*layerRec, ws *walStats) error {
	dir := cfg.phaseDir("replay-wal-" + id)
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	run := program.NewRun(spec.Program)
	peers := spec.Program.Peers()
	exps := make(map[schema.Peer]*core.Explainer, len(peers))
	for _, p := range peers {
		exps[p] = core.NewExplainer(run, p)
	}
	walSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			return 0
		}
		return st.Size()
	}
	ctx := context.Background()
	for _, i := range idx {
		o, r := ops[i], recs[i]
		switch o.kind {
		case opSubmit:
			a0, t0 := allocBytes(), time.Now()
			e, err := run.FireRule(o.rule, values(o.bind))
			r.t[lEngine], r.alloc[lEngine] = time.Since(t0), allocBytes()-a0
			if err != nil {
				return err
			}
			a0, t0 = allocBytes(), time.Now()
			for _, p := range peers {
				exps[p].SyncTo(run.Len())
			}
			r.t[lExplainer], r.alloc[lExplainer] = time.Since(t0), allocBytes()-a0

			rec := wal.Record{Seq: o.index, Event: trace.EncodeEvent(e), Idem: fmt.Sprintf("%08x-%d", cfg.seed, i)}
			t0 = time.Now()
			cm, err := log.AppendBuffered(ctx, rec)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if err := cm.Wait(); err != nil {
				return err
			}
			r.walWait = time.Since(t1)
			r.t[lWAL] = time.Since(t0)
			ws.records++
			if run.Len()%snapshotEvery == 0 {
				ws.bytes += walSize()
				t0 = time.Now()
				if err := log.WriteSnapshot(&wal.Snapshot{Workflow: spec.Name, Len: run.Len(), Trace: trace.FromRun(spec.Name, run)}); err != nil {
					return err
				}
				ws.snapMS = append(ws.snapMS, ms(time.Since(t0)))
				if st, err := os.Stat(filepath.Join(dir, "snapshot.json")); err == nil {
					ws.snapKB = append(ws.snapKB, float64(st.Size())/1024)
				}
			}
		case opExplain:
			t0 := time.Now()
			text := exps[schema.Peer(o.peer)].Report().String()
			r.t[lExplainer] = time.Since(t0)
			r.reportBytes = len(text)
		}
		if o.setup {
			*r = layerRec{}
		}
	}
	ws.bytes += walSize()
	return nil
}

// replayRecovery times, on a fresh copy of each crashed run directory,
// wal.Open alone and then server.Recover.
func replayRecovery(cfg config, spec *parse.Spec, crashed string, rep *report) error {
	runs := []string{server.DefaultRun}
	entries, err := os.ReadDir(filepath.Join(crashed, "runs"))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, e := range entries {
		runs = append(runs, e.Name())
	}
	var open, rebuild time.Duration
	events := 0
	for _, id := range runs {
		dir := cfg.phaseDir("replay-recovery-" + id)
		if err := copyRunDir(runDir(crashed, id), dir); err != nil {
			return err
		}
		t0 := time.Now()
		l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return err
		}
		o := time.Since(t0)
		if _, _, err := l.Crash(); err != nil {
			return err
		}
		dc := durability(obs.NewRegistry())
		dc.Dir = dir
		t0 = time.Now()
		c, err := server.Recover(spec.Name, spec.Program, dc)
		if err != nil {
			return err
		}
		rebuild += time.Since(t0) - o
		open += o
		events += c.Len()
		c.Crash()
		os.RemoveAll(dir)
	}
	rep.add("recovery.wal_open_s", open.Seconds(), "s", len(runs))
	rep.add("recovery.rebuild_s", rebuild.Seconds(), "s", len(runs))
	rep.add("recovery.events", float64(events), "count", 0)
	return nil
}

// copyRunDir copies one run's WAL and snapshot (not the nested runs/ of the
// default run's directory).
func copyRunDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"wal.log", "snapshot.json"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
