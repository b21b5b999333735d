package ioa_test

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
)

// widestStep returns a reachable state of a from which act has the
// most successors, and that count.
func widestStep(t *testing.T, a ioa.Automaton, act ioa.Action) (ioa.State, int) {
	t.Helper()
	var best ioa.State
	most := 0
	for _, s := range refReach(t, a, 20000) {
		if n := len(a.Next(s, act)); n > most {
			best, most = s, n
		}
	}
	return best, most
}

// TestCompositeVisitNextAllocs pins the allocation cost of a warm
// composite step per yielded successor: a successor tuple costs its
// parts slice, the TupleState and its key, so any per-step map or
// intermediate successor list shows up here. Both a multi-owner
// nondeterministic step over memoized leaves and a single-owner step
// of a nested (hidden, renamed) composition are measured.
func TestCompositeVisitNextAllocs(t *testing.T) {
	cases := []struct {
		name  string
		sys   int // index into ndSystems
		act   ioa.Action
		bound float64 // allocations per successor
	}{
		// Three allocations per successor tuple, nothing per step.
		{"multi-owner", 0, "go", 3},
		// The inner tuple plus the outer tuple per successor, and
		// the streaming closure once per step.
		{"nested-single-owner", 1, "h2", 6.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The first seed whose system has a step with at least
			// two successors; AllocsPerRun's warm-up run fills the memo.
			var (
				a ioa.Automaton
				s ioa.State
				n int
			)
			for seed := int64(0); n < 2; seed++ {
				a = ndSystems(t, rand.New(rand.NewSource(seed)))[tc.sys]
				s, n = widestStep(t, a, tc.act)
			}
			yield := func(ioa.State) bool { return true }
			allocs := testing.AllocsPerRun(100, func() {
				ioa.VisitNext(a, s, tc.act, yield)
			})
			per := allocs / float64(n)
			t.Logf("%s: %.1f allocations for %d successors", a.Name(), allocs, n)
			if per > tc.bound {
				t.Fatalf("%s: %.1f allocations for %d successors (%.2f each), want at most %.1f each",
					a.Name(), allocs, n, per, tc.bound)
			}
		})
	}
}
