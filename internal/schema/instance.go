package schema

import (
	"fmt"
	"strings"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// Instance is a valid instance of a database schema: for each relation, a
// finite set of tuples with pairwise distinct non-⊥ keys. Relations are
// persistent trees (rows.go), so copies share storage: Clone is O(relations)
// and every derived instance retains only the nodes it changed. Stored
// tuples are immutable — Put and ChaseInsert store copies of their inputs,
// and callers must not mutate tuples returned by Get or Tuples.
type Instance struct {
	db *Database
	// rels holds each relation's tree, by position in db.Names().
	rels []*node
}

// NewInstance returns the empty instance of db.
func NewInstance(db *Database) *Instance {
	return &Instance{db: db, rels: make([]*node, db.Size())}
}

// DB returns the schema of the instance.
func (in *Instance) DB() *Database { return in.db }

// Clone returns an independent copy of the instance. It shares every node
// with the receiver; writes to either copy the path they change.
func (in *Instance) Clone() *Instance {
	return &Instance{db: in.db, rels: clone(in.rels)}
}

// rel returns the tree of the named relation (nil when empty or unknown).
func (in *Instance) rel(name string) *node {
	if i, ok := in.db.index(name); ok {
		return in.rels[i]
	}
	return nil
}

// Get returns the tuple of relation rel with the given key.
func (in *Instance) Get(rel string, key data.Value) (data.Tuple, bool) {
	return in.rel(rel).get(key)
}

// HasKey reports whether rel contains a tuple with the given key — the view
// relation Key_R of the paper.
func (in *Instance) HasKey(rel string, key data.Value) bool {
	_, ok := in.rel(rel).get(key)
	return ok
}

// Count returns the number of tuples in rel.
func (in *Instance) Count(rel string) int { return in.rel(rel).count() }

// Empty reports whether the instance has no tuples at all.
func (in *Instance) Empty() bool {
	for _, n := range in.rels {
		if n.count() > 0 {
			return false
		}
	}
	return true
}

// Tuples returns the tuples of rel sorted by key.
func (in *Instance) Tuples(rel string) []data.Tuple { return in.rel(rel).list() }

// Keys returns the sorted keys of rel — the contents of Key_R.
func (in *Instance) Keys(rel string) []data.Value {
	n := in.rel(rel)
	keys := make([]data.Value, 0, n.count())
	n.each(func(t data.Tuple) bool {
		keys = append(keys, t[0])
		return true
	})
	return keys
}

// check validates t as a tuple of rel and returns the relation's position.
func (in *Instance) check(rel string, t data.Tuple) (int, error) {
	i, ok := in.db.index(rel)
	if !ok {
		return 0, fmt.Errorf("schema: unknown relation %s", rel)
	}
	if r := in.db.Relation(rel); len(t) != r.Arity() {
		return 0, fmt.Errorf("schema: tuple %v has arity %d, want %d for %s", t, len(t), r.Arity(), rel)
	}
	return i, nil
}

// Put stores tuple t in rel, replacing any tuple with the same key. The
// tuple must have the relation's arity and a non-⊥ key.
func (in *Instance) Put(rel string, t data.Tuple) error {
	i, err := in.check(rel, t)
	if err != nil {
		return err
	}
	if t.Key().IsNull() {
		return fmt.Errorf("schema: tuple %v has ⊥ key", t)
	}
	in.rels[i] = in.rels[i].with(t.Clone())
	return nil
}

// MustPut is Put panicking on error.
func (in *Instance) MustPut(rel string, t data.Tuple) {
	if err := in.Put(rel, t); err != nil {
		panic(err)
	}
}

// Delete removes the tuple of rel with the given key and reports whether it
// existed.
func (in *Instance) Delete(rel string, key data.Value) bool {
	i, ok := in.db.index(rel)
	if !ok {
		return false
	}
	in.rels[i], ok = in.rels[i].without(key)
	return ok
}

// ChaseInsert computes chase_K(I ∪ {R(t)}) without modifying I: if a tuple
// with t's key exists, the two are merged by filling ⊥ positions; the result
// is invalid (error) if they disagree on a non-⊥ attribute or t's key is ⊥.
// It returns the merged tuple as stored. The result shares every node but
// the changed path with the receiver.
func (in *Instance) ChaseInsert(rel string, t data.Tuple) (*Instance, data.Tuple, error) {
	i, err := in.check(rel, t)
	if err != nil {
		return nil, nil, err
	}
	if t.Key().IsNull() {
		return nil, nil, fmt.Errorf("schema: insertion with ⊥ key into %s", rel)
	}
	merged := t.Clone()
	if old, ok := in.rels[i].get(t.Key()); ok {
		for j := range merged {
			switch {
			case merged[j].IsNull():
				merged[j] = old[j]
			case old[j].IsNull() || old[j] == merged[j]:
				// compatible
			default:
				return nil, nil, fmt.Errorf("schema: chase conflict in %s on key %s attribute %s: %s vs %s",
					rel, t.Key(), in.db.Relation(rel).Attrs[j], old[j], merged[j])
			}
		}
	}
	out := in.Clone()
	out.rels[i] = out.rels[i].with(merged)
	return out, merged, nil
}

// Equal reports whether two instances over the same schema hold the same
// tuples.
func (in *Instance) Equal(other *Instance) bool {
	if other == nil {
		return in == nil
	}
	for i := range in.rels {
		if !equalRows(in.rels[i], other.rels[i]) {
			return false
		}
	}
	return true
}

// ADom returns the active domain: every value occurring in the instance
// (⊥ excluded).
func (in *Instance) ADom() data.ValueSet {
	s := data.NewValueSet()
	for _, n := range in.rels {
		n.each(func(t data.Tuple) bool {
			for _, v := range t {
				if !v.IsNull() {
					s.Add(v)
				}
			}
			return true
		})
	}
	return s
}

// Fingerprint returns a canonical string representation, usable as a map key
// for deduplicating instances during bounded searches.
func (in *Instance) Fingerprint() string {
	var b strings.Builder
	for i, name := range in.db.Names() {
		writeRel(&b, name, in.rels[i])
	}
	return b.String()
}

// writeRel writes name{t1t2…}, the fingerprint of one relation.
func writeRel(b *strings.Builder, name string, n *node) {
	b.WriteString(name)
	b.WriteByte('{')
	n.each(func(t data.Tuple) bool {
		t.WriteTo(b)
		return true
	})
	b.WriteByte('}')
}

// writeFacts writes the tuples of one relation as space-separated facts
// prefix(t), separated from earlier output by a space.
func writeFacts(b *strings.Builder, prefix string, n *node) {
	n.each(func(t data.Tuple) bool {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(prefix)
		t.WriteTo(b)
		return true
	})
}

// String renders the instance for debugging, omitting empty relations.
func (in *Instance) String() string {
	var b strings.Builder
	for i, name := range in.db.Names() {
		writeFacts(&b, name, in.rels[i])
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// ViewInstance is the view I@p of a global instance at a peer: for each view
// R@p, the projected tuples of the selected rows, stored in the same
// persistent trees as instances. A view keeping every attribute with
// selection true shares the instance's tree outright; the others are
// materialized lazily on first access. Derive builds a later view from an
// earlier one, sharing every node the intervening changes leave alone. The
// underlying instance must not be mutated after the view is taken (run
// instances never are — Apply is copy-on-write).
type ViewInstance struct {
	Peer Peer
	// views holds the peer's view of each relation, by position in the
	// database; nil where the peer has none.
	views []*View
	src   *Instance
	// rels holds each viewed relation's visible tuples by position;
	// unbuilt until the first access materializes it.
	rels []*node
	// cnt, when set, receives the condition-eval counts of the view
	// selections materialized by this instance (per-run profilers); nil
	// routes them to the process-global cond sink.
	cnt *cond.EvalCounts
}

// unbuilt marks a relation of a view instance that is not materialized yet.
var unbuilt = new(node)

// ViewOf computes I@p under the collaborative schema s; in must be an
// instance of s.DB.
func ViewOf(in *Instance, s *Collaborative, p Peer) *ViewInstance {
	views := s.views[p]
	if views == nil {
		views = make([]*View, s.DB.Size())
	}
	rels := make([]*node, len(views))
	for i, v := range views {
		if v != nil {
			rels[i] = unbuilt
		}
	}
	return &ViewInstance{Peer: p, views: views, src: in, rels: rels}
}

// rel materializes (once) and returns the visible projected tuples of the
// relation at position i.
func (vi *ViewInstance) rel(i int) *node {
	if n := vi.rels[i]; n != unbuilt {
		return n
	}
	v, src := vi.views[i], vi.src.rels[i]
	var n *node
	if v.full {
		n = src
	} else {
		var ts []data.Tuple
		src.each(func(t data.Tuple) bool {
			if v.SeesCount(t, vi.cnt) {
				ts = append(ts, v.Project(t))
			}
			return true
		})
		n = build(ts)
	}
	vi.rels[i] = n
	return n
}

// rows returns the visible tuples of the named relation.
func (vi *ViewInstance) rows(rel string) *node {
	if i, ok := vi.src.db.index(rel); ok {
		return vi.rel(i)
	}
	return nil
}

// ViewChange is one change to a peer's view of a relation: Tuple is the
// projected tuple now visible under Key, nil when the key left the view.
type ViewChange struct {
	Rel   string
	Key   data.Value
	Tuple data.Tuple
}

// Derive returns the peer's view of next, an instance whose view differs
// from vi's exactly by changes, applied in order. The result shares vi's
// storage except the paths the changes rewrite; a relation vi has not
// materialized is left for the result to materialize from next. vi is not
// modified.
func (vi *ViewInstance) Derive(next *Instance, changes []ViewChange) *ViewInstance {
	out := &ViewInstance{Peer: vi.Peer, views: vi.views, src: next, rels: clone(vi.rels), cnt: vi.cnt}
	for _, ch := range changes {
		i, ok := next.db.index(ch.Rel)
		if !ok || vi.views[i] == nil {
			continue
		}
		switch n := out.rels[i]; {
		case vi.views[i].full:
			out.rels[i] = next.rels[i]
		case n == unbuilt:
		case ch.Tuple == nil:
			out.rels[i], _ = n.without(ch.Key)
		default:
			out.rels[i] = n.with(ch.Tuple)
		}
	}
	return out
}

// CountConds routes the condition evaluations of selections materialized
// by this view instance to cs instead of the process-global sink. It must
// be set before the first access to any relation (materialization is
// memoized) and returns the receiver for chaining.
func (vi *ViewInstance) CountConds(cs *cond.EvalCounts) *ViewInstance {
	vi.cnt = cs
	return vi
}

// View returns the view definition for rel at this peer.
func (vi *ViewInstance) View(rel string) (*View, bool) {
	if i, ok := vi.src.db.index(rel); ok && vi.views[i] != nil {
		return vi.views[i], true
	}
	return nil, false
}

// Get returns the projected tuple with the given key in rel.
func (vi *ViewInstance) Get(rel string, key data.Value) (data.Tuple, bool) {
	return vi.rows(rel).get(key)
}

// HasKey reports whether the peer sees a tuple with this key — the contents
// of Key_{R@p}.
func (vi *ViewInstance) HasKey(rel string, key data.Value) bool {
	_, ok := vi.rows(rel).get(key)
	return ok
}

// Tuples returns the visible tuples of rel sorted by key.
func (vi *ViewInstance) Tuples(rel string) []data.Tuple { return vi.rows(rel).list() }

// Each calls fn on the visible tuples of rel in key order until fn returns
// false — Tuples without copying them into a slice — and reports whether it
// went through all of them.
func (vi *ViewInstance) Each(rel string, fn func(data.Tuple) bool) bool {
	return vi.rows(rel).each(fn)
}

// Relations returns the names of the relations the peer has a view of,
// sorted.
func (vi *ViewInstance) Relations() []string {
	var names []string
	for i, name := range vi.src.db.Names() {
		if vi.views[i] != nil {
			names = append(names, name)
		}
	}
	return names
}

// Equal reports whether two view instances (for the same peer's view
// schema) contain the same visible tuples, relation by relation, by name.
func (vi *ViewInstance) Equal(other *ViewInstance) bool {
	if other == nil {
		return vi == nil
	}
	n := 0
	for i, name := range vi.src.db.Names() {
		if vi.views[i] == nil {
			continue
		}
		j, ok := other.src.db.index(name)
		if !ok || other.views[j] == nil || !equalRows(vi.rel(i), other.rel(j)) {
			return false
		}
		n++
	}
	for _, v := range other.views {
		if v != nil {
			n--
		}
	}
	return n == 0
}

// Fingerprint returns a canonical string for the view instance.
func (vi *ViewInstance) Fingerprint() string {
	var b strings.Builder
	for i, name := range vi.src.db.Names() {
		if vi.views[i] != nil {
			writeRel(&b, name, vi.rel(i))
		}
	}
	return b.String()
}

// String renders the view instance.
func (vi *ViewInstance) String() string {
	var b strings.Builder
	for i, name := range vi.src.db.Names() {
		if vi.views[i] != nil {
			writeFacts(&b, name+"@"+string(vi.Peer), vi.rel(i))
		}
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// Reconstruct rebuilds a global instance from the collective peer views of
// in, as chase_K(⋃_p (I@p)^⊥). For lossless schemas the result equals in
// (this is exercised by tests). It returns an error if the chase terminates
// with an invalid instance, which cannot happen for views of a valid
// instance.
func Reconstruct(in *Instance, s *Collaborative) (*Instance, error) {
	out := NewInstance(in.db)
	for _, p := range s.Peers() {
		vi := ViewOf(in, s, p)
		for _, name := range vi.Relations() {
			v, _ := vi.View(name)
			for _, u := range vi.Tuples(name) {
				next, _, err := out.ChaseInsert(name, v.Pad(u))
				if err != nil {
					return nil, fmt.Errorf("schema: reconstruct: %w", err)
				}
				out = next
			}
		}
	}
	return out, nil
}
