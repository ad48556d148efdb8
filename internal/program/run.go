package program

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/prof"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Step is one transition of a run: the event together with the instance it
// produced and the recorded effects.
type Step struct {
	Event    *Event
	Instance *schema.Instance
	Effects  []Effect

	// added records the values this step contributed to the run's freshness
	// ledger, so Truncate can undo the step exactly.
	added []data.Value
}

// Run is a run of a program: a sequence of steps starting from an initial
// instance (the empty instance unless constructed with NewRunFrom). The run
// enforces the freshness condition on head-only variables.
//
// A Run is not safe for concurrent use; the server package's Coordinator
// serializes concurrent peers onto one run.
type Run struct {
	Prog    *Program
	Initial *schema.Instance
	Steps   []Step

	consts data.ValueSet // const(P)
	seen   data.ValueSet // values of the initial and all later instances
	fresh  *data.FreshSource
	// views caches each peer's views in step order. ViewAt derives a view
	// from the latest cached one at or before its step, so consecutive
	// entries share every node the steps between them left alone, and a
	// step that changes nothing at the peer shares the whole view.
	views map[schema.Peer][]cachedView

	// prof, when non-nil, attributes candidate-enumeration and replay cost
	// to the evaluation profiler. Nil (the default) keeps the original
	// uninstrumented paths: the hooks cost one nil test and no clock reads.
	prof *prof.Scope
}

// SetProfiler attaches a profiler scope to the run (nil detaches). The
// scope shares the run's non-concurrency: callers serialize through the
// same lock that guards the run itself. Cached views are evicted so their
// memoized materializations count condition evals against the new scope's
// sink (see ViewAt) rather than the one active when they were built.
func (r *Run) SetProfiler(sc *prof.Scope) {
	if r.prof != sc {
		clear(r.views)
	}
	r.prof = sc
}

// Profiler returns the run's profiler scope (nil when profiling is off).
func (r *Run) Profiler() *prof.Scope { return r.prof }

type cachedView struct {
	step int
	vi   *schema.ViewInstance
}

// NewRun starts a run of p from the empty instance.
func NewRun(p *Program) *Run {
	return NewRunFrom(p, schema.NewInstance(p.Schema.DB))
}

// NewRunFrom starts a run of p from an arbitrary initial instance.
func NewRunFrom(p *Program, initial *schema.Instance) *Run {
	return NewRunFromShared(p, initial.Clone())
}

// NewRunFromShared starts a run of p from an initial instance the caller
// promises not to mutate afterwards, skipping NewRunFrom's defensive clone.
// Runs never mutate their initial instance (Apply is copy-on-write), so the
// bounded searches — which replay thousands of runs from a fixed pool of
// immutable instances — use this to avoid cloning the pool over and over.
func NewRunFromShared(p *Program, initial *schema.Instance) *Run {
	r := &Run{
		Prog:    p,
		Initial: initial,
		consts:  p.Constants(),
		seen:    data.NewValueSet(),
		fresh:   data.NewFreshSource("ν"),
		views:   make(map[schema.Peer][]cachedView),
	}
	r.seen.AddAll(initial.ADom())
	return r
}

// Len returns the number of events in the run.
func (r *Run) Len() int { return len(r.Steps) }

// Event returns the i-th event (0-based).
func (r *Run) Event(i int) *Event { return r.Steps[i].Event }

// Events returns the event sequence e(ρ).
func (r *Run) Events() []*Event {
	out := make([]*Event, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Event
	}
	return out
}

// Effects returns the effects of the i-th event.
func (r *Run) Effects(i int) []Effect { return r.Steps[i].Effects }

// InstanceAt returns I_i, the instance after event i; InstanceAt(-1) is the
// initial instance.
func (r *Run) InstanceAt(i int) *schema.Instance {
	if i < 0 {
		return r.Initial
	}
	return r.Steps[i].Instance
}

// Current returns the latest instance of the run.
func (r *Run) Current() *schema.Instance { return r.InstanceAt(len(r.Steps) - 1) }

// ViewAt returns I_i@p (memoized); i may be -1 for the initial instance.
// It derives the view from p's latest cached view at an earlier step by
// applying the view changes of the steps in between (StepViewChanges), and
// builds from scratch only when p has no earlier view. Backtracking
// searches that truncate and re-extend the run derive every sibling from
// the view of their common parent.
func (r *Run) ViewAt(i int, p schema.Peer) *schema.ViewInstance {
	cache := r.views[p]
	j := sort.Search(len(cache), func(k int) bool { return cache[k].step > i }) - 1
	if j >= 0 && cache[j].step == i {
		return cache[j].vi
	}
	var v *schema.ViewInstance
	if j < 0 {
		// The run's own counter block (not the process-global sink)
		// receives the condition evals of this view's materialization, so
		// N runs in one process attribute selection work to their own
		// profilers.
		v = schema.ViewOf(r.InstanceAt(i), r.Prog.Schema, p).CountConds(r.prof.CondCounts())
	} else {
		var changes []schema.ViewChange
		for k := cache[j].step + 1; k <= i; k++ {
			changes = StepViewChanges(r.Prog.Schema, &r.Steps[k], p, r.prof.CondCounts(), changes)
		}
		v = cache[j].vi
		if len(changes) > 0 {
			v = v.Derive(r.InstanceAt(i), changes)
		}
	}
	r.views[p] = slices.Insert(cache, j+1, cachedView{i, v})
	return v
}

// VisibleAt reports whether event i is visible at peer p: either p performed
// it, or it changed p's view of the database (Section 3). The check is
// effect-local: relations the event did not touch cannot change any view,
// so only the affected tuples' visibility and projections are compared.
func (r *Run) VisibleAt(i int, p schema.Peer) bool {
	return StepVisibleAtCount(r.Prog.Schema, &r.Steps[i], p, r.prof.CondCounts())
}

// StepVisibleAt is VisibleAt over a single step, without the run: visibility
// depends only on the step's event and effects plus the schema, so callers
// holding an immutable step prefix (the coordinator's read snapshots) can
// answer it with no access to the live — possibly growing — run.
func StepVisibleAt(s *schema.Collaborative, st *Step, p schema.Peer) bool {
	return StepVisibleAtCount(s, st, p, nil)
}

// StepVisibleAtCount is StepVisibleAt with an explicit condition-eval count
// sink (nil = the process-global sink), so per-run profilers attribute the
// visibility checks' selection evaluations to their own run.
func StepVisibleAtCount(s *schema.Collaborative, st *Step, p schema.Peer, cs *cond.EvalCounts) bool {
	if st.Event.Peer() == p {
		return true
	}
	changed := false
	eachViewChange(s, st, p, cs, func(schema.ViewChange) bool {
		changed = true
		return false
	})
	return changed
}

// StepViewChanges appends to out the changes step st makes to p's view: one
// entry per effect whose visible projection at p differs before and after
// it. Applied in order to p's view before the step (ViewInstance.Derive),
// they give p's view after it.
func StepViewChanges(s *schema.Collaborative, st *Step, p schema.Peer, cs *cond.EvalCounts, out []schema.ViewChange) []schema.ViewChange {
	eachViewChange(s, st, p, cs, func(ch schema.ViewChange) bool {
		out = append(out, ch)
		return true
	})
	return out
}

// eachViewChange calls fn on the changes step st makes to p's view until fn
// returns false. The check is effect-local: relations the step did not
// touch cannot change any view, so only the affected tuples' visibility and
// projections are compared.
func eachViewChange(s *schema.Collaborative, st *Step, p schema.Peer, cs *cond.EvalCounts, fn func(schema.ViewChange) bool) {
	for _, ef := range st.Effects {
		v, ok := s.View(p, ef.Rel)
		if !ok {
			continue
		}
		var before, after data.Tuple
		if ef.Before != nil && v.SeesCount(ef.Before, cs) {
			before = v.Project(ef.Before)
		}
		if ef.After != nil && v.SeesCount(ef.After, cs) {
			after = v.Project(ef.After)
		}
		if (before == nil) == (after == nil) && (before == nil || before.Equal(after)) {
			continue
		}
		if !fn(schema.ViewChange{Rel: ef.Rel, Key: ef.Key, Tuple: after}) {
			return
		}
	}
}

// Schema returns the collaborative schema the run's program is over.
func (r *Run) Schema() *schema.Collaborative { return r.Prog.Schema }

// VisibleEvents returns the indices of the events visible at p.
func (r *Run) VisibleEvents(p schema.Peer) []int {
	var out []int
	for i := range r.Steps {
		if r.VisibleAt(i, p) {
			out = append(out, i)
		}
	}
	return out
}

// Append extends the run with event e, enforcing the run conditions: the
// event's body must hold on the current instance, its updates must be
// applicable, and values bound to head-only variables must be globally
// fresh (absent from const(P), the initial instance, and every instance so
// far) and pairwise distinct.
func (r *Run) Append(e *Event) error {
	cur := r.Current()
	vi := r.ViewAt(len(r.Steps)-1, e.Peer())
	var satisfied bool
	if r.prof == nil {
		satisfied = e.Rule.Body.Satisfied(vi, e.Val)
	} else {
		start := time.Now()
		satisfied = e.Rule.Body.Satisfied(vi, e.Val)
		r.prof.RuleReplay(e.Rule.Name, string(e.Peer()), time.Since(start).Nanoseconds())
	}
	if !satisfied {
		return fmt.Errorf("program: event %s: body not satisfied at step %d", e, len(r.Steps))
	}
	freshVals := e.FreshValues()
	inEvent := data.NewValueSet()
	for _, v := range freshVals {
		if v.IsNull() {
			return fmt.Errorf("program: event %s: fresh variable bound to ⊥", e)
		}
		if r.consts.Has(v) || r.seen.Has(v) {
			return fmt.Errorf("program: event %s: value %s is not globally fresh", e, v)
		}
		if !inEvent.Add(v) {
			return fmt.Errorf("program: event %s: fresh variables share value %s", e, v)
		}
	}
	next, effects, err := ApplyCount(cur, e, r.Prog.Schema, r.prof.CondCounts())
	if err != nil {
		return err
	}
	// Every value of the successor instance comes from the predecessor or
	// from the event itself (the chase only moves existing values), so the
	// freshness ledger grows by the event's values only. The newly seen
	// values are recorded on the step so Truncate can undo them.
	var added []data.Value
	for v := range e.Values() {
		if r.seen.Add(v) {
			added = append(added, v)
		}
	}
	r.Steps = append(r.Steps, Step{Event: e, Instance: next, Effects: effects, added: added})
	r.prof.RuleFired(e.Rule.Name, string(e.Peer()))
	return nil
}

// Truncate discards all events after the first n, restoring the run to the
// state it had before they were appended: the freshness ledger forgets the
// values the dropped steps introduced and the cached views of the dropped
// instances are evicted. It is the O(dropped)-cost inverse of Append that
// the backtracking searches rely on (rebuilding the prefix would re-check
// every body and re-clone every instance).
func (r *Run) Truncate(n int) {
	if n < 0 || n > len(r.Steps) {
		panic(fmt.Sprintf("program: Truncate(%d) out of range [0,%d]", n, len(r.Steps)))
	}
	for i := len(r.Steps) - 1; i >= n; i-- {
		for _, v := range r.Steps[i].added {
			delete(r.seen, v)
		}
		r.Steps[i] = Step{} // release the instance
	}
	r.Steps = r.Steps[:n]
	for p, cache := range r.views {
		j := sort.Search(len(cache), func(k int) bool { return cache[k].step >= n })
		clear(cache[j:])
		r.views[p] = cache[:j]
	}
}

// MustAppend is Append panicking on error.
func (r *Run) MustAppend(e *Event) {
	if err := r.Append(e); err != nil {
		panic(err)
	}
}

// Candidate is a rule with a body valuation found on the current instance;
// firing it will extend the valuation with fresh values for head-only
// variables.
type Candidate struct {
	Rule *rule.Rule
	Val  query.Valuation
}

// String renders the candidate.
func (c Candidate) String() string { return c.Rule.Name + c.Val.String() }

// Candidates enumerates the applicable rule instantiations on the current
// instance, at most limitPerRule per rule (0 = no cap). The enumeration is
// deterministic. The returned candidates all have satisfiable bodies; their
// updates are only checked when fired.
func (r *Run) Candidates(limitPerRule int) []Candidate {
	var out []Candidate
	for _, rl := range r.Prog.Rules() {
		vi := r.ViewAt(len(r.Steps)-1, rl.Peer)
		if r.prof == nil {
			for _, val := range rl.Body.Eval(vi, limitPerRule) {
				out = append(out, Candidate{Rule: rl, Val: val})
			}
			continue
		}
		var es query.EvalStats
		start := time.Now()
		vals := rl.Body.EvalCollect(vi, nil, limitPerRule, &es)
		r.prof.RuleEval(rl.Name, string(rl.Peer), time.Since(start).Nanoseconds(), &es)
		for _, val := range vals {
			out = append(out, Candidate{Rule: rl, Val: val})
		}
	}
	return out
}

// Fire instantiates candidate c, binding head-only variables to fresh
// values, and appends the resulting event to the run. Unbound body
// variables are completed by evaluating the body on the current instance
// under the partial binding (first match in deterministic order).
func (r *Run) Fire(c Candidate) (*Event, error) {
	val := c.Val.Clone()
	unbound := false
	for _, v := range c.Rule.BodyVars() {
		if _, ok := val[v]; !ok {
			unbound = true
			break
		}
	}
	if unbound {
		vi := r.ViewAt(len(r.Steps)-1, c.Rule.Peer)
		var fulls []query.Valuation
		if r.prof == nil {
			fulls = c.Rule.Body.EvalCollect(vi, val, 1, nil)
		} else {
			var es query.EvalStats
			start := time.Now()
			fulls = c.Rule.Body.EvalCollect(vi, val, 1, &es)
			r.prof.RuleEval(c.Rule.Name, string(c.Rule.Peer), time.Since(start).Nanoseconds(), &es)
		}
		if len(fulls) == 0 {
			return nil, fmt.Errorf("program: rule %s: no body valuation extends %s", c.Rule.Name, val)
		}
		val = fulls[0]
	}
	for _, v := range c.Rule.FreshVars() {
		if _, bound := val[v]; bound {
			continue
		}
		val[v] = r.NextFresh()
	}
	e, err := NewEvent(c.Rule, val)
	if err != nil {
		return nil, err
	}
	if err := r.Append(e); err != nil {
		return nil, err
	}
	return e, nil
}

// FireRule fires the named rule with the given body bindings, a convenience
// for examples and tests.
func (r *Run) FireRule(name string, bindings map[string]data.Value) (*Event, error) {
	rl := r.Prog.Rule(name)
	if rl == nil {
		return nil, fmt.Errorf("program: no rule named %s", name)
	}
	val := make(query.Valuation, len(bindings))
	for k, v := range bindings {
		val[k] = v
	}
	return r.Fire(Candidate{Rule: rl, Val: val})
}

// MustFireRule is FireRule panicking on error.
func (r *Run) MustFireRule(name string, bindings map[string]data.Value) *Event {
	e, err := r.FireRule(name, bindings)
	if err != nil {
		panic(err)
	}
	return e
}

// NextFresh returns a value that is globally fresh for this run.
func (r *Run) NextFresh() data.Value {
	for {
		v := r.fresh.Next()
		if !r.consts.Has(v) && !r.seen.Has(v) {
			return v
		}
	}
}

// String renders the run as its event sequence.
func (r *Run) String() string {
	parts := make([]string, len(r.Steps))
	for i, s := range r.Steps {
		parts[i] = fmt.Sprintf("%d: %s", i, s.Event)
	}
	return strings.Join(parts, "\n")
}
