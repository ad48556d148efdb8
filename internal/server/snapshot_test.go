package server

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/schema"
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

// TestReadsMatchReplay is the differential test of the read path: on a
// third of the prefixes (the last included), every peer's View, Explain,
// Scenario and TransitionsAndLen must equal the answers recomputed from
// scratch over a fresh replay of the served trace — views by schema.ViewOf
// over the replayed instances, explanations by a new explainer over the
// replayed run.
func TestReadsMatchReplay(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	subs := randomWorkload(t, prog, 11, 12)
	for i, s := range subs {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 || i == len(subs)-1 {
			compareWithReplay(t, c)
		}
	}
}

func compareWithReplay(t *testing.T, c *Coordinator) {
	t.Helper()
	replay, err := c.Trace().Replay(c.prog)
	if err != nil {
		t.Fatal(err)
	}
	n := replay.Len()
	for _, peer := range c.prog.Peers() {
		ex := core.NewExplainer(replay, peer)
		view := func(i int) string {
			return schema.ViewOf(replay.InstanceAt(i), c.prog.Schema, peer).String()
		}

		if got, err := c.View(peer); err != nil || got != view(n-1) {
			t.Fatalf("%s at %d: View = %q, %v; replay %q", peer, n, got, err, view(n-1))
		}
		rep, err := c.Explain(peer)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.String(), ex.Report().String(); got != want {
			t.Fatalf("%s at %d: Explain =\n%s\nreplay:\n%s", peer, n, got, want)
		}
		sc, err := c.Scenario(peer)
		if err != nil {
			t.Fatal(err)
		}
		if want := ex.MinimalScenario(); !reflect.DeepEqual(sc, want) {
			t.Fatalf("%s at %d: Scenario = %v, replay %v", peer, n, sc, want)
		}

		var want []Notification
		for idx := 0; idx < n; idx++ {
			if !replay.VisibleAt(idx, peer) {
				continue
			}
			e := replay.Event(idx)
			nt := Notification{Index: idx, Omega: e.Peer() != peer, View: view(idx)}
			if !nt.Omega {
				nt.Rule = e.Rule.Name
			}
			for _, j := range ex.ExplainEvent(idx) {
				if j != idx {
					nt.Because = append(nt.Because, j)
				}
			}
			want = append(want, nt)
		}
		got, gotLen, err := c.TransitionsAndLen(peer, 0)
		if err != nil {
			t.Fatal(err)
		}
		if gotLen != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %d: TransitionsAndLen = (%+v, %d)\nreplay (%+v, %d)", peer, n, got, gotLen, want, n)
		}
	}
}

// TestNotificationsMatchPolls pins the push and poll paths to one answer:
// every notification a subscriber receives is deeply equal to the
// TransitionsAndLen entry for the same index. The durable run releases
// concurrent submitters' events in group-commit batches, so one release
// notifies several indices from one snapshot.
func TestNotificationsMatchPolls(t *testing.T) {
	prog := workload.Hiring()
	check := func(t *testing.T, c *Coordinator, submit func()) {
		chans := make(map[schema.Peer]<-chan Notification)
		for _, peer := range prog.Peers() {
			ch, cancel, err := c.Subscribe(peer, 256)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			chans[peer] = ch
		}
		submit()
		if c.Dropped() != 0 {
			t.Fatalf("%d notifications dropped", c.Dropped())
		}
		total := 0
		for peer, ch := range chans {
			polled, _, err := c.TransitionsAndLen(peer, 0)
			if err != nil {
				t.Fatal(err)
			}
			byIndex := make(map[int]Notification, len(polled))
			for _, nt := range polled {
				byIndex[nt.Index] = nt
			}
			got := 0
			for ; len(ch) > 0; got++ {
				nt := <-ch
				if want, ok := byIndex[nt.Index]; !ok || !reflect.DeepEqual(nt, want) {
					t.Fatalf("%s: notification %+v, poll %+v (found %v)", peer, nt, want, ok)
				}
			}
			if got != len(polled) {
				t.Fatalf("%s: %d notifications for %d polled transitions", peer, got, len(polled))
			}
			total += got
		}
		if total == 0 {
			t.Fatal("no notifications delivered")
		}
	}

	t.Run("in-memory", func(t *testing.T) {
		c := New("Hiring", prog)
		check(t, c, func() {
			for _, s := range randomWorkload(t, prog, 5, 20) {
				if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	t.Run("durable-group-commit", func(t *testing.T) {
		c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		check(t, c, func() {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						if _, err := c.Submit("hr", "clear", nil); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	})
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

// TestReadPathMetrics pins the read-path observability surface: snapshot
// swaps accumulate with releases, and the age gauge is sampled at scrape
// time.
func TestReadPathMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prog := workload.Hiring()
	c := New("Hiring", prog)
	c.Instrument(reg)

	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
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
	s := c.snap.Load()
	for i, peer := range prog.Peers() {
		if got := c.snapView(s, -1, peer); got != first[i] {
			t.Fatalf("re-rendered initial view of %s = %q, want %q", peer, got, first[i])
		}
	}
}
