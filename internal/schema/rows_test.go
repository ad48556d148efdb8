package schema

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"collabwf/internal/data"
)

// refInstance is the plain-map reference the tree-backed Instance is
// checked against.
type refInstance map[string]map[data.Value]data.Tuple

func (ref refInstance) clone() refInstance {
	out := make(refInstance, len(ref))
	for rel, rows := range ref {
		m := make(map[data.Value]data.Tuple, len(rows))
		for k, t := range rows {
			m[k] = t
		}
		out[rel] = m
	}
	return out
}

func (ref refInstance) sorted(rel string) []data.Tuple {
	var out []data.Tuple
	for _, t := range ref[rel] {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// checkTree verifies the B+tree invariants: keys strictly ascending within
// the separator bounds, sizes summing up, every leaf at the same depth,
// widths within maxWidth, no empty node and no single-child root.
func checkTree(t *testing.T, n *node) {
	t.Helper()
	if n == nil {
		return
	}
	if !n.leaf() && len(n.kids) == 1 {
		t.Fatal("inner root with a single child")
	}
	leafDepth := -1
	var walk func(n *node, lo, hi *data.Value, depth int) int
	walk = func(n *node, lo, hi *data.Value, depth int) int {
		if n.width() == 0 || n.width() > maxWidth {
			t.Fatalf("node width %d", n.width())
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			for i, tup := range n.tuples {
				k := tup[0]
				if (lo != nil && k < *lo) || (hi != nil && k >= *hi) || (i > 0 && n.tuples[i-1][0] >= k) {
					t.Fatalf("key %s out of order or bounds", k)
				}
			}
			if n.size != len(n.tuples) {
				t.Fatalf("leaf size %d, holds %d", n.size, len(n.tuples))
			}
			return n.size
		}
		if len(n.seps) != len(n.kids)-1 {
			t.Fatalf("%d separators for %d kids", len(n.seps), len(n.kids))
		}
		size := 0
		for i, c := range n.kids {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.seps[i-1]
			}
			if i < len(n.seps) {
				chi = &n.seps[i]
			}
			size += walk(c, clo, chi, depth+1)
		}
		if n.size != size {
			t.Fatalf("inner size %d, holds %d", n.size, size)
		}
		return size
	}
	walk(n, nil, nil, 0)
}

// checkAgainst compares every read of in with the reference.
func checkAgainst(t *testing.T, in *Instance, ref refInstance, when string) {
	t.Helper()
	adom := data.NewValueSet()
	var fp strings.Builder
	for _, rel := range in.DB().Names() {
		checkTree(t, in.rel(rel))
		want := ref.sorted(rel)
		if got := in.Count(rel); got != len(want) {
			t.Fatalf("%s: Count(%s) = %d, want %d", when, rel, got, len(want))
		}
		got := in.Tuples(rel)
		keys := in.Keys(rel)
		if len(got) != len(want) || len(keys) != len(want) {
			t.Fatalf("%s: %s holds %d tuples (%d keys), want %d", when, rel, len(got), len(keys), len(want))
		}
		fp.WriteString(rel + "{")
		for i, w := range want {
			if !got[i].Equal(w) || keys[i] != w[0] {
				t.Fatalf("%s: %s tuple %d = %v (key %s), want %v", when, rel, i, got[i], keys[i], w)
			}
			if g, ok := in.Get(rel, w[0]); !ok || !g.Equal(w) {
				t.Fatalf("%s: Get(%s, %s) = %v, %v", when, rel, w[0], g, ok)
			}
			for _, v := range w {
				if !v.IsNull() {
					adom.Add(v)
				}
			}
			fp.WriteString(w.String())
		}
		fp.WriteString("}")
		if _, ok := in.Get(rel, "absent"); ok {
			t.Fatalf("%s: Get of an absent key succeeded", when)
		}
	}
	gotADom := in.ADom()
	if len(gotADom) != len(adom) {
		t.Fatalf("%s: ADom has %d values, want %d", when, len(gotADom), len(adom))
	}
	for v := range adom {
		if !gotADom.Has(v) {
			t.Fatalf("%s: ADom misses %s", when, v)
		}
	}
	if in.Fingerprint() != fp.String() {
		t.Fatalf("%s: Fingerprint\n%s\nwant\n%s", when, in.Fingerprint(), fp.String())
	}
	// An instance built from the reference in random key order is Equal.
	other := NewInstance(in.DB())
	for _, rel := range in.DB().Names() {
		for _, w := range ref[rel] {
			other.MustPut(rel, w)
		}
	}
	if !in.Equal(other) || !other.Equal(in) {
		t.Fatalf("%s: instance unequal to its rebuild", when)
	}
}

type version struct {
	in  *Instance
	ref refInstance
	op  string
}

// The tree-backed relations behave exactly like a plain map of key →
// tuple under random Put, Delete and ChaseInsert (chase conflicts and ⊥
// keys included), across enough keys to split, merge and collapse nodes,
// and every earlier version stays unchanged by later derived writes.
func TestRowsDifferential(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A", "B"), MustRelation("S", "A"))
	arity := map[string]int{"R": 3, "S": 2}
	rng := rand.New(rand.NewSource(42))
	vals := []data.Value{"a", "b", "c", data.Null}
	for trial := 0; trial < 4; trial++ {
		keys := 20 + trial*120 // from single leaves to three-level trees
		in, ref := NewInstance(db), refInstance{"R": {}, "S": {}}
		var kept []version
		for op := 0; op < 3000; op++ {
			rel := []string{"R", "S"}[rng.Intn(2)]
			key := data.Value(fmt.Sprintf("k%03d", rng.Intn(keys)))
			if rng.Intn(50) == 0 {
				key = data.Null
			}
			tup := data.Tuple{key}
			for len(tup) < arity[rel] {
				tup = append(tup, vals[rng.Intn(len(vals))])
			}
			// The first half grows the relations, the second shrinks them,
			// so nodes split, then merge and collapse.
			put, del := 3, 4 // x < put: Put; x < del: Delete; else ChaseInsert
			if op >= 1500 {
				put, del = 0, 9
			}
			var desc string
			switch x := rng.Intn(10); {
			case x < put: // Put on a clone: the old version must not change
				desc = fmt.Sprintf("Put %s%v", rel, tup)
				next := in.Clone()
				err := next.Put(rel, tup)
				if (err != nil) != key.IsNull() {
					t.Fatalf("%s: err %v", desc, err)
				}
				if err == nil {
					ref = ref.clone()
					ref[rel][key] = tup.Clone()
				}
				in = next
			case x < del:
				desc = fmt.Sprintf("Delete %s(%s)", rel, key)
				next := in.Clone()
				_, had := ref[rel][key]
				if got := next.Delete(rel, key); got != had {
					t.Fatalf("%s: reported %v, want %v", desc, got, had)
				}
				if had {
					ref = ref.clone()
					delete(ref[rel], key)
				}
				in = next
			default:
				desc = fmt.Sprintf("ChaseInsert %s%v", rel, tup)
				next, merged, err := in.ChaseInsert(rel, tup)
				old, had := ref[rel][key]
				conflict := false
				want := tup.Clone()
				if had {
					for i := range want {
						switch {
						case want[i].IsNull():
							want[i] = old[i]
						case !old[i].IsNull() && old[i] != want[i]:
							conflict = true
						}
					}
				}
				if (err != nil) != (conflict || key.IsNull()) {
					t.Fatalf("%s: err %v, conflict %v", desc, err, conflict)
				}
				if err == nil {
					if !merged.Equal(want) {
						t.Fatalf("%s: merged %v, want %v", desc, merged, want)
					}
					ref = ref.clone()
					ref[rel][key] = want
					in = next
				}
			}
			if op%10 == 0 {
				checkAgainst(t, in, ref, desc)
			}
			if op%100 == 0 {
				kept = append(kept, version{in, ref, desc})
			}
			if len(kept) > 0 && op%5 == 0 {
				v := kept[rng.Intn(len(kept))]
				checkAgainst(t, v.in, v.ref, "version after "+v.op)
			}
		}
		checkAgainst(t, in, ref, "final")
		for _, v := range kept {
			checkAgainst(t, v.in, v.ref, "version after "+v.op)
			if v.in.Equal(in) != (v.in.Fingerprint() == in.Fingerprint()) {
				t.Fatal("Equal disagrees with Fingerprint")
			}
		}
	}
}

// Building a relation bottom-up gives the same contents as inserting its
// tuples one by one, for every size up to a few levels.
func TestRowsBuild(t *testing.T) {
	for n := 0; n < 600; n += 7 {
		var ts []data.Tuple
		var ins *node
		for i := 0; i < n; i++ {
			tup := data.Tuple{data.Value(fmt.Sprintf("k%04d", i)), "v"}
			ts = append(ts, tup)
			ins = ins.with(tup)
		}
		b := build(ts)
		checkTree(t, b)
		if !equalRows(b, ins) || b.count() != n {
			t.Fatalf("build of %d tuples differs from insertion", n)
		}
	}
}
