// Package schema implements the database and collaborative schemas of the
// workflow model (Section 2 of the paper): relation schemas with a common
// single-attribute key K, global database schemas, selection-projection peer
// views R@p, instances with the key constraint, the chase chase_K, and the
// effective losslessness check for collaborative schemas.
package schema

import (
	"fmt"
	"sort"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// Relation is a relation schema: a name and a sequence of distinct
// attributes whose first attribute is the key K.
type Relation struct {
	Name  string
	Attrs []data.Attr
	pos   map[data.Attr]int
}

// NewRelation builds a relation schema. The key attribute K is added
// implicitly as the first attribute if not given first; attributes must be
// distinct and may not include K anywhere but first.
func NewRelation(name string, attrs ...data.Attr) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation needs a name")
	}
	all := make([]data.Attr, 0, len(attrs)+1)
	if len(attrs) == 0 || attrs[0] != data.KeyAttr {
		all = append(all, data.KeyAttr)
	}
	all = append(all, attrs...)
	pos := make(map[data.Attr]int, len(all))
	for i, a := range all {
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("schema: relation %s: duplicate attribute %s", name, a)
		}
		if a == data.KeyAttr && i != 0 {
			return nil, fmt.Errorf("schema: relation %s: key attribute %s must come first", name, a)
		}
		pos[a] = i
	}
	return &Relation{Name: name, Attrs: all, pos: pos}, nil
}

// MustRelation is NewRelation panicking on error; for tests and literals.
func MustRelation(name string, attrs ...data.Attr) *Relation {
	r, err := NewRelation(name, attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns the number of attributes including the key.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Pos returns the attribute→position map of the schema.
func (r *Relation) Pos() map[data.Attr]int { return r.pos }

// Index returns the position of attribute a, if present.
func (r *Relation) Index(a data.Attr) (int, bool) {
	i, ok := r.pos[a]
	return i, ok
}

// Has reports whether the schema has attribute a.
func (r *Relation) Has(a data.Attr) bool {
	_, ok := r.pos[a]
	return ok
}

// String renders the schema as Name(K, A, ...).
func (r *Relation) String() string {
	s := r.Name + "("
	for i, a := range r.Attrs {
		if i > 0 {
			s += ", "
		}
		s += string(a)
	}
	return s + ")"
}

// Database is a global database schema: a finite set of relation schemas.
type Database struct {
	rels  map[string]*Relation
	names []string
}

// NewDatabase builds a database schema from relation schemas with distinct
// names.
func NewDatabase(rels ...*Relation) (*Database, error) {
	d := &Database{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if _, dup := d.rels[r.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate relation %s", r.Name)
		}
		d.rels[r.Name] = r
		d.names = append(d.names, r.Name)
	}
	sort.Strings(d.names)
	return d, nil
}

// MustDatabase is NewDatabase panicking on error.
func MustDatabase(rels ...*Relation) *Database {
	d, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return d
}

// Relation returns the schema of the named relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.rels[name] }

// Names returns the relation names in sorted order.
func (d *Database) Names() []string { return d.names }

// index returns the position of the named relation in Names(), the layout
// of instances and view instances.
func (d *Database) index(name string) (int, bool) {
	i := sort.SearchStrings(d.names, name)
	return i, i < len(d.names) && d.names[i] == name
}

// Size returns the number of relations.
func (d *Database) Size() int { return len(d.rels) }

// MaxArity returns the largest arity among the relations (0 if empty).
func (d *Database) MaxArity() int {
	m := 0
	for _, r := range d.rels {
		if r.Arity() > m {
			m = r.Arity()
		}
	}
	return m
}

// Peer identifies a participant of a collaborative workflow.
type Peer string

// World is the fictitious peer ω used by synthesized view programs to stand
// for "the rest of the world".
const World Peer = "ω"

// View is the view R@p of relation R at peer p: a projection on a subset of
// the attributes (always containing the key) combined with a selection over
// att(R).
type View struct {
	Rel       *Relation
	Peer      Peer
	Attrs     []data.Attr // in schema order, Attrs[0] == K
	Selection cond.Condition
	pos       map[data.Attr]int // position within the view tuple
	srcIdx    []int             // position of each view attribute in the base tuple
	// full caches Full: a view tuple is then the base tuple itself, so a
	// view instance shares the instance's relation tree.
	full bool
}

// NewView builds the view of rel at peer with the given projected attributes
// (the key is added implicitly) and selection (nil means true).
func NewView(rel *Relation, peer Peer, attrs []data.Attr, sel cond.Condition) (*View, error) {
	if rel == nil {
		return nil, fmt.Errorf("schema: view needs a relation")
	}
	if sel == nil {
		sel = cond.True{}
	}
	for _, a := range cond.AttrsOf(sel) {
		if !rel.Has(a) {
			return nil, fmt.Errorf("schema: view %s@%s: selection uses unknown attribute %s", rel.Name, peer, a)
		}
	}
	seen := map[data.Attr]bool{data.KeyAttr: true}
	ordered := []data.Attr{data.KeyAttr}
	for _, a := range attrs {
		if a == data.KeyAttr {
			continue
		}
		if !rel.Has(a) {
			return nil, fmt.Errorf("schema: view %s@%s: unknown attribute %s", rel.Name, peer, a)
		}
		if seen[a] {
			return nil, fmt.Errorf("schema: view %s@%s: duplicate attribute %s", rel.Name, peer, a)
		}
		seen[a] = true
		ordered = append(ordered, a)
	}
	// Keep schema order for determinism.
	sort.Slice(ordered[1:], func(i, j int) bool {
		pi, _ := rel.Index(ordered[1+i])
		pj, _ := rel.Index(ordered[1+j])
		return pi < pj
	})
	v := &View{Rel: rel, Peer: peer, Attrs: ordered, Selection: sel,
		pos: make(map[data.Attr]int, len(ordered)), srcIdx: make([]int, len(ordered))}
	for i, a := range ordered {
		v.pos[a] = i
		src, _ := rel.Index(a)
		v.srcIdx[i] = src
	}
	v.full = len(ordered) == rel.Arity() && cond.Valid(sel)
	return v, nil
}

// MustView is NewView panicking on error.
func MustView(rel *Relation, peer Peer, attrs []data.Attr, sel cond.Condition) *View {
	v, err := NewView(rel, peer, attrs, sel)
	if err != nil {
		panic(err)
	}
	return v
}

// Arity returns the number of attributes of the view, including the key.
func (v *View) Arity() int { return len(v.Attrs) }

// Pos returns the attribute→position map of the view tuple layout.
func (v *View) Pos() map[data.Attr]int { return v.pos }

// Has reports whether attribute a is projected by the view.
func (v *View) Has(a data.Attr) bool {
	_, ok := v.pos[a]
	return ok
}

// Full reports whether the view exposes all attributes of R with selection
// true (condition (C1) of the design guidelines requires peers that see a
// p-visible relation to see it fully).
func (v *View) Full() bool { return v.full }

// Sees evaluates the selection σ(R@p) on a full tuple over R.
func (v *View) Sees(t data.Tuple) bool {
	return v.Selection.Eval(v.Rel.pos, t)
}

// SeesCount is Sees with an explicit condition-eval count sink (nil =
// global sink), so callers that own per-run profiler counters attribute
// the selection's node visits to their run rather than to whichever
// profiler installed the process-global sink last.
func (v *View) SeesCount(t data.Tuple, cs *cond.EvalCounts) bool {
	if cs == nil {
		return v.Selection.Eval(v.Rel.pos, t)
	}
	return v.Selection.EvalCount(v.Rel.pos, t, cs)
}

// Project projects a full tuple over R onto the view attributes.
func (v *View) Project(t data.Tuple) data.Tuple {
	out := make(data.Tuple, len(v.srcIdx))
	for i, src := range v.srcIdx {
		out[i] = t[src]
	}
	return out
}

// Pad expands a view tuple u to a full tuple over R, filling the hidden
// attributes with ⊥ — the J^⊥ padding of the paper.
func (v *View) Pad(u data.Tuple) data.Tuple {
	out := make(data.Tuple, v.Rel.Arity())
	for i := range out {
		out[i] = data.Null
	}
	for i, src := range v.srcIdx {
		out[src] = u[i]
	}
	return out
}

// RelevantAttrs returns att(R, p) = att(R@p) ∪ att(σ(R@p)): the attributes
// whose values determine whether and how p sees a tuple (Section 4).
func (v *View) RelevantAttrs() []data.Attr {
	set := make(map[data.Attr]struct{}, len(v.Attrs))
	for _, a := range v.Attrs {
		set[a] = struct{}{}
	}
	v.Selection.Attrs(set)
	out := make([]data.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the view declaration.
func (v *View) String() string {
	s := v.Rel.Name + "@" + string(v.Peer) + "("
	for i, a := range v.Attrs {
		if i > 0 {
			s += ", "
		}
		s += string(a)
	}
	s += ")"
	if _, ok := v.Selection.(cond.True); !ok {
		s += " where " + v.Selection.String()
	}
	return s
}
