package server

import (
	"sort"
	"time"

	"collabwf/internal/cond"
	"collabwf/internal/core"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

// snapshot is an immutable capture of the released run prefix, published
// through Coordinator.snap (an atomic.Pointer) by releaseLocked after every
// group-commit release. The read paths — View, Explain, Scenario,
// Transitions, Trace, Len — serve from the latest snapshot without touching
// the coordinator mutex.
//
// Why sharing is safe (the memory-model argument, expanded in DESIGN.md):
//
//   - steps is a length-capped slice header over the live run's Steps
//     backing array. The released prefix is append-only and immutable:
//     Append writes only indices ≥ len(steps), and rollbackTo always
//     targets n ≥ observable, so Truncate zeroes only indices ≥ len(steps).
//     Readers and the writer touch disjoint memory.
//   - Published relation nodes are immutable: a step path-copies the
//     nodes it changes (schema/rows.go) and shares the rest with its
//     predecessor, so rendering a view over steps[i].Instance reads nodes
//     no writer touches again. The run's derived views (Run.ViewAt) share
//     those nodes too but are reached only under the lock; readers build
//     their own lazy view over the instance instead.
//   - Rendered view strings are cached for the last viewStrWindow released
//     steps only (see snapView), so the cache does not grow with the run.
//   - vis slices are length-capped captures of the visible-index caches,
//     which are append-only for the same reason.
//   - exp holds copy-on-write freezes of the per-peer incremental
//     explainers (see faithful.Maintainer.Freeze).
//   - atomic.Pointer.Store/Load give release/acquire ordering: everything
//     written before the Store (the prefix, the caches, the freezes) is
//     visible to any reader that Loads the new pointer.
type snapshot struct {
	name    string
	prog    *program.Program
	initial *schema.Instance
	// steps is the released prefix; len(steps) == observable at publication.
	steps []program.Step
	// vis[p] lists p's visible event indices over steps, ascending.
	vis map[schema.Peer][]int
	// exp[p] answers p's explanation queries over exactly this prefix.
	exp map[schema.Peer]*core.FrozenExplainer
	// seq increments with every publication; born stamps it (UnixNano),
	// feeding the wf_snapshot_age_seconds gauge.
	seq  uint64
	born int64
	// cnt is the owning coordinator's condition-eval counter block (nil when
	// unprofiled): visibility checks on the snapshot attribute their
	// selection evaluations to that run, not to the process-global sink.
	cnt *cond.EvalCounts
}

// snapshot implements core.RunReader over the captured prefix.

func (s *snapshot) Len() int                       { return len(s.steps) }
func (s *snapshot) Schema() *schema.Collaborative  { return s.prog.Schema }
func (s *snapshot) Event(i int) *program.Event     { return s.steps[i].Event }
func (s *snapshot) Effects(i int) []program.Effect { return s.steps[i].Effects }

func (s *snapshot) VisibleAt(i int, p schema.Peer) bool {
	return program.StepVisibleAtCount(s.prog.Schema, &s.steps[i], p, s.cnt)
}

// instanceAt returns I_i of the captured prefix; -1 is the initial instance.
func (s *snapshot) instanceAt(i int) *schema.Instance {
	if i < 0 {
		return s.initial
	}
	return s.steps[i].Instance
}

// events decodes the captured prefix's event sequence.
func (s *snapshot) events() []*program.Event {
	out := make([]*program.Event, len(s.steps))
	for i := range s.steps {
		out[i] = s.steps[i].Event
	}
	return out
}

// publishSnapshotLocked captures the released prefix and swaps it in for
// lock-free readers. Callers hold the lock (or are constructing the
// coordinator). Publication advances the per-peer explainers to the
// released prefix first — this is where the incremental explanation work
// happens, O(new events) per release, so no read ever pays it.
func (c *Coordinator) publishSnapshotLocked() {
	peers := c.prog.Peers()
	vis := make(map[schema.Peer][]int, len(peers))
	exp := make(map[schema.Peer]*core.FrozenExplainer, len(peers))
	for _, p := range peers {
		idxs := c.visibleLocked(p)
		vis[p] = idxs[:len(idxs):len(idxs)]
		exp[p] = c.explainer(p).Freeze()
	}
	c.snapSeq++
	s := &snapshot{
		name:    c.name,
		prog:    c.prog,
		initial: c.run.Initial,
		steps:   c.run.Steps[:c.observable:c.observable],
		vis:     vis,
		exp:     exp,
		seq:     c.snapSeq,
		born:    time.Now().UnixNano(),
		cnt:     c.profiler.Cond(),
	}
	c.snap.Store(s)
	c.evictViewStrsLocked()
	c.metrics.snapshotSwapped()
}

// readSnapshot returns the current snapshot for a lock-free read, or nil
// when lock-free reads are disabled (the -locked-reads escape hatch and the
// E17 baseline) and the caller must fall back to the mutex path.
func (c *Coordinator) readSnapshot() *snapshot {
	if c.lockedReads.Load() {
		return nil
	}
	return c.snap.Load()
}

// SetLockedReads forces every read back onto the coordinator mutex (true)
// or restores lock-free snapshot serving (false, the default). Exists for
// the E17 baseline and as an operational escape hatch (-locked-reads);
// the wf_read_locked_total / wf_read_lockfree_total counters attribute
// reads to the two paths.
func (c *Coordinator) SetLockedReads(v bool) { c.lockedReads.Store(v) }

// SnapshotInfo reports the published snapshot's sequence number, age, and
// event count, for /statusz and the snapshot-age gauge.
func (c *Coordinator) SnapshotInfo() (seq uint64, age time.Duration, events int) {
	s := c.snap.Load()
	if s == nil {
		return 0, 0, 0
	}
	return s.seq, time.Duration(time.Now().UnixNano() - s.born), len(s.steps)
}

// vsKey keys the rendered-view-string cache: the peer's view after step
// (−1 = initial instance).
type vsKey struct {
	step int
	peer schema.Peer
}

// viewStrWindow is how many of the most recent released steps keep their
// rendered view strings. A rendered view of a long run is tens of kB per
// peer, so the window, not the run length, bounds the cache: at most
// viewStrWindow × peers strings. /view reads the last step; a tail poll of
// /transitions reads the steps since the poller's previous poll. On the
// crowd-longrun benchmark (10 submits/s, 60 polls per peer per second) a
// poll is a fraction of a step behind, and 16 steps is 1.6 s of submits of
// slack. A read reaching further back (/transitions from 0, a backfill)
// re-renders each older view on every such request.
const viewStrWindow = 16

// snapView renders the peer's view after step i of the snapshot, serving
// repeated reads of the last viewStrWindow steps from the string cache. A
// miss renders from the step's instance, whose relation trees it shares
// (a full view is the instance's tree itself); only steps inside the window
// are cached.
func (c *Coordinator) snapView(s *snapshot, i int, peer schema.Peer) string {
	k := vsKey{i, peer}
	if v, ok := c.viewStrs.Load(k); ok {
		return v.(string)
	}
	str := schema.ViewOf(s.instanceAt(i), s.prog.Schema, peer).String()
	if i >= s.Len()-viewStrWindow {
		c.viewStrs.Store(k, str)
	}
	return str
}

// evictViewStrsLocked drops the cached view strings of steps that left the
// window. It sweeps the whole cache, so an entry a reader of an older
// snapshot stored after an earlier sweep goes too. Callers hold the lock.
func (c *Coordinator) evictViewStrsLocked() {
	low := c.observable - viewStrWindow
	c.viewStrs.Range(func(k, _ any) bool {
		if k.(vsKey).step < low {
			c.viewStrs.Delete(k)
		}
		return true
	})
}

// snapNotification builds the peer's notification for event idx from the
// snapshot alone — the lock-free twin of buildNotification, kept
// byte-identical through the shared makeNotification assembly.
func (c *Coordinator) snapNotification(s *snapshot, peer schema.Peer, idx int) Notification {
	return makeNotification(s.Event(idx), peer, idx, c.snapView(s, idx, peer), s.exp[peer].ExplainEvent(idx))
}

// TransitionsAndLen answers Transitions plus the released length from one
// snapshot, so pollers get a mutually consistent (transitions, len) pair;
// /transitions serves this.
func (c *Coordinator) TransitionsAndLen(peer schema.Peer, from int) ([]Notification, int, error) {
	if s := c.readSnapshot(); s != nil {
		if !s.prog.Schema.HasPeer(peer) {
			return nil, 0, unknownPeerErr(peer)
		}
		c.readMetrics().readPath(true)
		idxs := s.vis[peer]
		var out []Notification
		for _, idx := range idxs[sort.SearchInts(idxs, from):] {
			out = append(out, c.snapNotification(s, peer, idx))
		}
		return out, s.Len(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.prog.Schema.HasPeer(peer) {
		return nil, 0, unknownPeerErr(peer)
	}
	c.readMetrics().readPath(false)
	return c.transitionsLocked(peer, from), c.observable, nil
}

// snapTrace exports the snapshot's prefix as a replayable trace.
func (s *snapshot) trace() *trace.Trace {
	return trace.FromEvents(s.name, s.initial, s.events())
}
