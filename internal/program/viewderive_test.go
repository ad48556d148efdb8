package program_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"collabwf/internal/engine"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// checkViews compares every Run.ViewAt(i, p) — derived from the peer's
// earlier cached views — with the view built from scratch over I_i, in a
// random step order so derivations span gaps of every length.
func checkViews(t *testing.T, r *program.Run, rng *rand.Rand) {
	t.Helper()
	s := r.Schema()
	for _, i := range rng.Perm(r.Len() + 1) {
		i--
		for _, p := range s.Peers() {
			got := r.ViewAt(i, p)
			want := schema.ViewOf(r.InstanceAt(i), s, p)
			if got.String() != want.String() || got.Fingerprint() != want.Fingerprint() || !got.Equal(want) {
				t.Fatalf("view of %s after step %d:\nderived      %s\nfrom scratch %s", p, i, got, want)
			}
		}
	}
}

// drive extends r by up to n random events.
func drive(r *program.Run, n int, rng *rand.Rand) {
	for k := 0; k < n; k++ {
		cands := r.Candidates(8)
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		fired := false
		for _, c := range cands {
			if _, err := r.Fire(c); err == nil {
				fired = true
				break
			}
		}
		if !fired {
			return
		}
	}
}

// Views derived step by step from earlier views equal views built from
// scratch, on a random run of every shipped spec, before and after the run
// is truncated and extended differently (the deciders' backtracking).
func TestDerivedViewsMatchFromScratch(t *testing.T) {
	specs, err := filepath.Glob("../../examples/specs/*.wf")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	for _, path := range specs {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := parse.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			r, err := engine.RandomRun(spec.Program, 300, 7, 8)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() < 100 {
				t.Fatalf("random run stopped at %d events", r.Len())
			}
			// A replay caches only what Append asks for, so checkViews
			// derives across long gaps.
			replay := program.NewRun(spec.Program)
			for _, e := range r.Events() {
				replay.MustAppend(e)
			}
			checkViews(t, r, rng)
			checkViews(t, replay, rng)
			for _, n := range []int{r.Len() / 2, r.Len() / 3, 0} {
				r.Truncate(n)
				drive(r, 60, rng)
				checkViews(t, r, rng)
			}
		})
	}
}
