package explore

// The pre-store explorer, preserved verbatim as a differential oracle
// and benchmark baseline. ReferenceReach is the seed string-keyed BFS
// (map[string]struct{} dedup on State.Key(), successor slices
// materialized by Next): re-sorted by (BFS depth, key), its result is
// exactly the order the store-backed engine must visit, and
// BENCH_store.json measures the interned engine against it. It is NOT deprecated — tests and
// internal/bench call it on purpose — but production callers want
// Engine.Reach.

import (
	"repro/internal/ioa"
)

// ReferenceReach computes the reachable states of a, in BFS order,
// visiting at most limit states, with the seed (string-keyed,
// slice-materializing) algorithm. It returns ErrLimit (with the
// partial result) if the limit is hit before the frontier empties.
func ReferenceReach(a ioa.Automaton, limit int) ([]ioa.State, error) {
	acts := a.Sig().Acts().Sorted()
	seen := make(map[string]struct{})
	var order []ioa.State
	var frontier []ioa.State
	push := func(s ioa.State) {
		if _, ok := seen[s.Key()]; ok {
			return
		}
		seen[s.Key()] = struct{}{}
		order = append(order, s)
		frontier = append(frontier, s)
	}
	for _, s := range a.Start() {
		push(s)
	}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, act := range acts {
			for _, nxt := range a.Next(s, act) {
				if len(order) >= limit {
					if _, ok := seen[nxt.Key()]; !ok {
						return order, errLimit(a, limit)
					}
					continue
				}
				push(nxt)
			}
		}
	}
	return order, nil
}
