package server

import (
	"reflect"
	"testing"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// TestReadsLockFreeWhileMutexHeld is the structural proof of the lock-free
// read path: every read operation completes while the coordinator mutex is
// held by someone else. Before the snapshot path, each of these calls would
// deadlock here (View et al. took c.mu).
func TestReadsLockFreeWhileMutexHeld(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	for _, s := range randomWorkload(t, prog, 5, 10) {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, peer := range prog.Peers() {
			if _, err := c.View(peer); err != nil {
				t.Error(err)
			}
			if _, err := c.Explain(peer); err != nil {
				t.Error(err)
			}
			if _, err := c.Scenario(peer); err != nil {
				t.Error(err)
			}
			if _, _, err := c.TransitionsAndLen(peer, 0); err != nil {
				t.Error(err)
			}
		}
		if c.Trace() == nil {
			t.Error("nil trace")
		}
		if c.Len() == 0 {
			t.Error("Len() = 0 on a non-empty run")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked on the coordinator mutex")
	}
}

// TestLockFreeMatchesLockedReads pins snapshot serving to the mutex-path
// semantics: for every peer and every read operation, the lock-free answer
// must be deeply equal to the locked baseline (-locked-reads) on the same
// state.
func TestLockFreeMatchesLockedReads(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	subs := randomWorkload(t, prog, 11, 12)
	for i, s := range subs {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			continue // compare on a third of the prefixes, including the last
		}
		compareReadPaths(t, c)
	}
	compareReadPaths(t, c)
}

func compareReadPaths(t *testing.T, c *Coordinator) {
	t.Helper()
	type answers struct {
		view     string
		report   string
		scenario []int
		trans    []Notification
		n        int
		trace    string
	}
	collect := func() map[string]answers {
		out := make(map[string]answers)
		for _, peer := range c.prog.Peers() {
			v, err := c.View(peer)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Explain(peer)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := c.Scenario(peer)
			if err != nil {
				t.Fatal(err)
			}
			ts, n, err := c.TransitionsAndLen(peer, 0)
			if err != nil {
				t.Fatal(err)
			}
			out[string(peer)] = answers{view: v, report: rep.String(), scenario: sc, trans: ts, n: n,
				trace: c.Trace().Workflow}
		}
		return out
	}
	lockfree := collect()
	c.SetLockedReads(true)
	locked := collect()
	c.SetLockedReads(false)
	if !reflect.DeepEqual(lockfree, locked) {
		t.Fatalf("lock-free and locked reads diverge:\n lock-free: %+v\n locked: %+v", lockfree, locked)
	}
}

// TestRecoverRebuildsExplainers is the satellite regression test for the
// explainer cold start: recovery itself must rebuild the per-peer explainer
// state, so a peer's first Explain after Recover does no prefix replay. The
// assertion is structural (the published snapshot's frozen explainers cover
// the whole recovered prefix the moment Recover returns), not a timing
// measurement, so it cannot flake with prefix length.
func TestRecoverRebuildsExplainers(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range randomWorkload(t, prog, 7, 20) {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Len()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rc, err := Recover("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := rc.Len(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
	// Structural cold-start check: before any Explain call, the published
	// snapshot already holds every peer's frozen explainer, synced to the
	// full recovered prefix and bound to the recovered run (not the empty
	// pre-replay one New created).
	s := rc.snap.Load()
	if s == nil {
		t.Fatal("no snapshot published by Recover")
	}
	if s.Len() != want {
		t.Fatalf("snapshot covers %d events, want %d", s.Len(), want)
	}
	for _, peer := range prog.Peers() {
		fe := s.exp[peer]
		if fe == nil {
			t.Fatalf("no frozen explainer for %s in the recovery snapshot", peer)
		}
		if fe.Len() != want {
			t.Fatalf("frozen explainer for %s covers %d events, want %d", peer, fe.Len(), want)
		}
	}
	// And the reports are served lock-free from that state (would deadlock
	// if the first Explain still rebuilt under the mutex).
	rc.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, peer := range prog.Peers() {
			if _, err := rc.Explain(peer); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		rc.mu.Unlock()
		t.Fatal("Explain after Recover blocked on the coordinator mutex")
	}
	rc.mu.Unlock()
}

// TestReadPathMetrics pins the read-path observability surface: lock-free
// and locked reads are counted on their own families, snapshot swaps
// accumulate with releases, and the age gauge is sampled at scrape time.
func TestReadPathMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prog := workload.Hiring()
	c := New("Hiring", prog)
	c.Instrument(reg)

	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.View("hr"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain("hr"); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, reg, "wf_read_lockfree_total"); got != 2 {
		t.Fatalf("wf_read_lockfree_total = %v, want 2", got)
	}

	c.SetLockedReads(true)
	if _, err := c.View("hr"); err != nil {
		t.Fatal(err)
	}
	c.SetLockedReads(false)
	if got := gaugeValue(t, reg, "wf_read_locked_total"); got != 1 {
		t.Fatalf("wf_read_locked_total = %v, want 1", got)
	}
	if got := gaugeValue(t, reg, "wf_read_lockfree_total"); got != 2 {
		t.Fatalf("wf_read_lockfree_total moved to %v on the locked path", got)
	}

	// One publication per release; the construction-time swap predates
	// Instrument and is uncounted (seq still records it).
	if got := gaugeValue(t, reg, "wf_snapshot_swaps_total"); got != 1 {
		t.Fatalf("wf_snapshot_swaps_total = %v, want 1", got)
	}
	seq, age, events := c.SnapshotInfo()
	if seq != 2 || events != 1 {
		t.Fatalf("SnapshotInfo = (%d, %v, %d), want seq 2 with 1 event", seq, age, events)
	}
	// The age gauge is pulled by the OnGather hook at scrape time.
	if got := gaugeValue(t, reg, "wf_snapshot_age_seconds"); got <= 0 {
		t.Fatalf("wf_snapshot_age_seconds = %v after a scrape, want > 0", got)
	}
}

// The rendered-view cache keeps only the last viewStrWindow released steps,
// however long the run and however far back readers reach; a read outside
// the window re-renders the same string.
func TestViewStringCacheBounded(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	var first []string
	for _, peer := range prog.Peers() {
		v, err := c.View(peer)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, v)
	}
	steps := randomWorkload(t, prog, 5, 60)
	for _, s := range steps {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
		for _, peer := range prog.Peers() {
			if _, _, err := c.TransitionsAndLen(peer, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len() <= 2*viewStrWindow {
		t.Fatalf("run of %d events does not outgrow the window", c.Len())
	}
	n := 0
	c.viewStrs.Range(func(k, _ any) bool {
		if step := k.(vsKey).step; step < c.Len()-viewStrWindow {
			t.Errorf("step %d of %d still cached", step, c.Len())
		}
		n++
		return true
	})
	if max := viewStrWindow * len(prog.Peers()); n > max {
		t.Fatalf("%d cached view strings, want at most %d", n, max)
	}
	s := c.readSnapshot()
	for i, peer := range prog.Peers() {
		if got := c.snapView(s, -1, peer); got != first[i] {
			t.Fatalf("re-rendered initial view of %s = %q, want %q", peer, got, first[i])
		}
	}
}
