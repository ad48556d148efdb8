package faithful

import (
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// mainID is the pseudo set id of the maintained minimal faithful scenario
// in the lifecycle reference index.
const mainID = -1

// Maintainer incrementally maintains the minimal p-faithful scenario of a
// growing run, as outlined at the end of Section 4 of the paper. Besides
// T_p^ω(ρ, α) for the visible events α, it maintains T_p^ω(ρ, {f}) for
// every event f — a minimal boundary- and modification-faithful explanation
// of the individual event. Each new event costs a single application of the
// T_p operator plus set unions, instead of a fixpoint recomputation over
// the whole run.
type Maintainer struct {
	p schema.Peer
	a *Analysis

	perEvent []Seq
	main     Seq
	// refs[lc] is the set of set-ids (event indices, or mainID) whose
	// closure references a key of the currently open lifecycle lc; when
	// an event closes the lifecycle, those closures must absorb it.
	refs map[lcID]map[int]bool

	processed int
	// shared is the copy-on-write watermark left by Freeze: perEvent slots
	// below it may be aliased by outstanding Frozen captures, so overwriting
	// one first copies the slice (see setPerEvent). Appends are exempt — a
	// frozen capture is length-capped, so slots past it are never aliased.
	shared int
}

// NewMaintainer builds a maintainer for p over r, replaying any events
// already in r through the incremental algorithm.
func NewMaintainer(r *program.Run, p schema.Peer) *Maintainer {
	return NewMaintainerAt(r, p, r.Len())
}

// NewMaintainerAt builds a maintainer for p over r processing only the
// first n events, so a caller exposing a bounded prefix of the run (e.g. a
// coordinator whose tail is not yet durable) gets explanations over exactly
// that prefix. Later events are absorbed by SyncTo/Sync.
func NewMaintainerAt(r *program.Run, p schema.Peer, n int) *Maintainer {
	m := &Maintainer{
		p:    p,
		a:    NewAnalysisPartial(r),
		main: NewSeq(),
		refs: make(map[lcID]map[int]bool),
	}
	m.SyncTo(n)
	return m
}

// Sync processes events appended to the run since the last call.
func (m *Maintainer) Sync() { m.SyncTo(m.a.Run.Len()) }

// SyncTo processes events up to (exclusive) index n, leaving the rest for a
// later call; n past the run length is clamped. It never un-processes.
func (m *Maintainer) SyncTo(n int) {
	if n > m.a.Run.Len() {
		n = m.a.Run.Len()
	}
	for i := m.processed; i < n; i++ {
		m.a.SyncTo(i + 1)
		m.processOne(i)
		m.processed++
	}
}

// Minimal returns (a copy of) the current minimal p-faithful scenario
// T_p^ω(ρ, α).
func (m *Maintainer) Minimal() Seq { return m.main.Clone() }

// Explanation returns (a copy of) T_p^ω(ρ, {f}) for event f: the minimal
// boundary- and modification-p-faithful subsequence containing f.
func (m *Maintainer) Explanation(f int) Seq { return m.perEvent[f].Clone() }

// Len returns the number of events processed.
func (m *Maintainer) Len() int { return m.processed }

func (m *Maintainer) processOne(n int) {
	// (i) f = e: the closure of the new event is e plus the closures of
	// its direct requirements T_p(ρ.e, {e}) \ {e}.
	direct := Step(m.a, NewSeq(n), m.p)
	sn := NewSeq(n)
	for g := range direct {
		if g == n {
			continue
		}
		sn = Add(sn, m.perEvent[g])
	}
	m.perEvent = append(m.perEvent, sn)
	m.register(n, sn)

	// (i) f ≠ e and (ii) α: closures referencing a key of a lifecycle that
	// e just closed must absorb e's closure.
	for _, ef := range m.a.Run.Effects(n) {
		if ef.Kind != program.Deleted {
			continue
		}
		id := lcID{ef.Rel, ef.Key}
		for setID := range m.refs[id] {
			if setID == mainID {
				m.main = Add(m.main, sn)
				m.register(mainID, sn)
			} else if setID != n {
				m.setPerEvent(setID, Add(m.perEvent[setID], sn))
				m.register(setID, sn)
			}
		}
		delete(m.refs, id)
	}

	// (ii) α: a visible event joins the maintained scenario with its
	// closure.
	if m.a.Run.VisibleAt(n, m.p) {
		m.main = Add(m.main, sn)
		m.register(mainID, sn)
	}
}

// setPerEvent overwrites perEvent[i], copying the slice first when the slot
// may be aliased by a Frozen capture. Only closures of still-open lifecycles
// are ever overwritten, so steady-state maintenance pays the copy at most
// once per Freeze, not once per event.
func (m *Maintainer) setPerEvent(i int, s Seq) {
	if i < m.shared {
		m.perEvent = append([]Seq(nil), m.perEvent...)
		m.shared = 0
	}
	m.perEvent[i] = s
}

// Frozen is an immutable capture of a Maintainer's state at a point in time:
// the per-event explanations and minimal scenario over exactly the events
// processed when Freeze was called. It is safe for concurrent use by any
// number of readers while the Maintainer keeps advancing — the stored Seq
// values are never mutated in place (the maintainer replaces them), and the
// capture's slice is protected by the copy-on-write watermark.
type Frozen struct {
	perEvent []Seq
	main     Seq
	n        int
}

// Freeze captures the maintainer's current state. O(1): it shares the
// perEvent backing array (marking it copy-on-write) and the current main
// sequence (which the maintainer only ever replaces, never mutates).
func (m *Maintainer) Freeze() *Frozen {
	n := len(m.perEvent)
	if m.shared < n {
		m.shared = n
	}
	return &Frozen{perEvent: m.perEvent[:n:n], main: m.main, n: m.processed}
}

// Explanation returns T_p^ω(ρ, {f}) for event f, as of the freeze point.
// The set is shared, not copied: the maintainer never mutates a stored set,
// and callers must not either.
func (f *Frozen) Explanation(i int) Seq { return f.perEvent[i] }

// Minimal returns the minimal p-faithful scenario as of the freeze point,
// shared like Explanation's sets.
func (f *Frozen) Minimal() Seq { return f.main }

// Len returns the number of events the capture covers.
func (f *Frozen) Len() int { return f.n }

// register records, for every event of set, the open lifecycles whose keys
// it references, so the closure identified by setID absorbs their eventual
// right boundaries.
func (m *Maintainer) register(setID int, set Seq) {
	for g := range set {
		e := m.a.Run.Event(g)
		for _, rel := range e.KeyRelations() {
			for _, k := range e.KeysOf(rel) {
				lc, ok := m.a.LifecycleAt(rel, k, g)
				if !ok || lc.Closed() {
					continue
				}
				id := lcID{rel, k}
				if m.refs[id] == nil {
					m.refs[id] = make(map[int]bool)
				}
				m.refs[id][setID] = true
			}
		}
	}
}
