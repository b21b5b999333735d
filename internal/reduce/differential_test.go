package reduce_test

// The oracle-differential battery: every system is explored unreduced
// and, where it has a sound symmetry, quotiented, and each run is
// replayed against the unreduced explore.ReferenceReach oracle on the
// repository's closed systems, at worker counts {1, 2, 8}. Checked per
// case:
//
//   - full mode: the engine's reach is exactly the oracle's state set;
//   - symmetry mode: the reduced reach holds exactly one concrete
//     member per orbit of the oracle's reachable set (both directions,
//     compared through the canonicalizer);
//   - both mode: the same orbit check with the quotient held in the
//     disk-spilling store at a tiny flush budget, so canonical
//     encodings go through many sorted runs;
//   - every mode: the invariant verdict matches the oracle's, a
//     symmetric target predicate that fails somewhere yields a
//     violation in reduced and unreduced runs alike, and the run's
//     witness replays step-by-step on the unreduced automaton via
//     reduce.ReplayTrace.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/mutex"
	"repro/internal/reduce"
	"repro/internal/ring"
	"repro/internal/store"
)

// batteryCase is one system under differential test.
type batteryCase struct {
	name  string
	build func(t *testing.T) ioa.Automaton
	// canon is the system's symmetry; nil runs the full mode only.
	canon store.Canonicalizer
	// invariant holds on every reachable state (orbit-invariant).
	invariant func(ioa.State) bool
	// target fails on some reachable state (orbit-invariant), to
	// exercise violation witnesses.
	target func(ioa.State) bool
}

// mutexHolds reports at most one user automaton holding (components
// 1..n of a closed arbiter or ring state).
func mutexHolds(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return true
	}
	n := 0
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Holding {
			n++
		}
	}
	return n <= 1
}

// someoneIdle fails once every user has left the idle phase; reachable
// in every heavy-load arbiter and ring system, and invariant under
// user permutations and rotations.
func someoneIdle(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return true
	}
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Idle {
			return true
		}
	}
	return false
}

func batteryCases(t *testing.T) []batteryCase {
	t.Helper()
	var cases []batteryCase

	// Specification arbiter under the full symmetric group, n = 2..4.
	for n := 2; n <= 4; n++ {
		n := n
		canon, err := reduce.NewArbiterUsers(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, batteryCase{
			name: fmt.Sprintf("arbiter1-n%d", n),
			build: func(t *testing.T) ioa.Automaton {
				a, err := bench.ExploreSystem(1, n)
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
			canon:     canon,
			invariant: mutexHolds,
			target:    someoneIdle,
		})
	}

	// Distributed arbiter on the binary tree (full mode only: the
	// round-robin sendgrant scan leaves the tree no nontrivial sound
	// symmetry).
	cases = append(cases, batteryCase{
		name: "arbiter3-n3",
		build: func(t *testing.T) ioa.Automaton {
			a, err := bench.ExploreSystem(3, 3)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Distributed arbiter on the star, under its free rotation group.
	starCanon, err := reduce.NewStarRotation(4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name: "arbiter3-star-n4",
		build: func(t *testing.T) ioa.Automaton {
			a, err := bench.StarSystem(4)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		canon:     starCanon,
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Dijkstra's K-state ring under counter shifts. From the legitimate
	// start every reachable state keeps exactly one privilege; the
	// all-counters-equal target fails one move in. Both predicates are
	// shift-invariant.
	dk, err := ring.NewDijkstra(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	dShift, err := reduce.NewDijkstraShift(3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name:  "dijkstra-n3",
		build: func(t *testing.T) ioa.Automaton { return dk.Auto },
		canon: dShift,
		invariant: func(s ioa.State) bool {
			return len(dk.Privileged(s)) == 1
		},
		target: func(s ioa.State) bool {
			ds, ok := s.(*ring.DijkstraState)
			if !ok {
				return true
			}
			for i := 1; i < ds.Len(); i++ {
				if ds.Val(i) != ds.Val(0) {
					return true
				}
			}
			return false
		},
	})

	// LeLann token ring under rotation.
	ringCanon, err := reduce.NewRingRotation(3)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batteryCase{
		name: "ring-n3",
		build: func(t *testing.T) ioa.Automaton {
			names := spec.DefaultUsers(3)
			sys, err := ring.New(names)
			if err != nil {
				t.Fatal(err)
			}
			comps := append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(names))...)
			a, err := ioa.Compose("ring-closed", comps...)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		canon:     ringCanon,
		invariant: mutexHolds,
		target:    someoneIdle,
	})

	// Burns' mutex with two client automata; the residual register
	// inputs make it an open composition, so the engine and the oracle
	// both run on the ClosedWorld wrapper.
	cases = append(cases, batteryCase{
		name: "mutex",
		build: func(t *testing.T) ioa.Automaton {
			sys, err := mutex.New()
			if err != nil {
				t.Fatal(err)
			}
			comps := []ioa.Automaton{sys.Mutex}
			for i := 0; i < 2; i++ {
				i := i
				d := ioa.NewDef("User" + string(rune('0'+i)))
				d.Start(ioa.KeyState("rem"))
				d.Output(mutex.Try(i), "u"+string(rune('0'+i)),
					func(s ioa.State) bool { return s.Key() == "rem" },
					func(ioa.State) ioa.State { return ioa.KeyState("trying") })
				d.Input(mutex.Crit(i), func(s ioa.State) ioa.State { return ioa.KeyState("crit") })
				d.Output(mutex.Exit(i), "u"+string(rune('0'+i)),
					func(s ioa.State) bool { return s.Key() == "crit" },
					func(ioa.State) ioa.State { return ioa.KeyState("exited") })
				d.Input(mutex.Rem(i), func(s ioa.State) ioa.State { return ioa.KeyState("rem") })
				comps = append(comps, d.MustBuild())
			}
			a, err := ioa.Compose("mutex-closed", comps...)
			if err != nil {
				t.Fatal(err)
			}
			return explore.ClosedWorld(a)
		},
		invariant: func(s ioa.State) bool {
			ts, ok := s.(*ioa.TupleState)
			if !ok {
				return true
			}
			n := 0
			for i := 1; i < ts.Len(); i++ {
				if ts.At(i).Key() == "crit" {
					n++
				}
			}
			return n <= 1
		},
		target: func(s ioa.State) bool {
			ts, ok := s.(*ioa.TupleState)
			if !ok {
				return true
			}
			for i := 1; i < ts.Len(); i++ {
				if ts.At(i).Key() == "crit" {
					return false
				}
			}
			return true
		},
	})

	return cases
}

// canonKeys maps states to their orbit identities: the canonical
// representative's key under c, or the state's own key with no
// canonicalizer.
func canonKeys(c store.Canonicalizer, states []ioa.State) map[string]bool {
	out := make(map[string]bool, len(states))
	for _, s := range states {
		if c != nil {
			out[c.Canonical(s).Key()] = true
		} else {
			out[s.Key()] = true
		}
	}
	return out
}

func keySet(states []ioa.State) map[string]bool {
	out := make(map[string]bool, len(states))
	for _, s := range states {
		out[s.Key()] = true
	}
	return out
}

// TestDifferentialBattery is the oracle-differential battery over all
// systems, reduction modes, and worker counts.
func TestDifferentialBattery(t *testing.T) {
	for _, c := range batteryCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			oracleAuto := c.build(t)
			full, err := explore.ReferenceReach(oracleAuto, explore.DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			fullKeys := keySet(full)
			fullVerdict := true
			for _, s := range full {
				if !c.invariant(s) {
					fullVerdict = false
					break
				}
			}
			targetViolated := false
			for _, s := range full {
				if !c.target(s) {
					targetViolated = true
					break
				}
			}
			if !targetViolated {
				t.Fatalf("battery target predicate never fails on %s; pick a reachable one", c.name)
			}

			modes := []string{"full"}
			if c.canon != nil {
				modes = append(modes, "symmetry", "both")
			}
			for _, mode := range modes {
				for _, workers := range []int{1, 2, 8} {
					mode, workers := mode, workers
					t.Run(fmt.Sprintf("%s-w%d", mode, workers), func(t *testing.T) {
						a := c.build(t)
						opts := explore.Options{Workers: workers}
						if mode == "symmetry" || mode == "both" {
							opts.Canon = c.canon
						}
						if mode == "both" {
							opts.Spill = &store.SpillOptions{Dir: t.TempDir(), MemBudget: 256, BlockEvery: 4}
						}
						eng := explore.New(opts)
						reduced, err := eng.Reach(context.Background(), a)
						if err != nil {
							t.Fatal(err)
						}

						// Quotient-size and membership checks.
						switch mode {
						case "symmetry", "both":
							want := canonKeys(c.canon, full)
							got := canonKeys(c.canon, reduced)
							if len(reduced) != len(want) {
								t.Errorf("%s reach %d states, oracle has %d orbits", mode, len(reduced), len(want))
							}
							for k := range got {
								if !want[k] {
									t.Errorf("reduced orbit %q not reachable in oracle", k)
								}
							}
							for k := range want {
								if !got[k] {
									t.Errorf("oracle orbit %q missing from reduced reach", k)
								}
							}
						case "full":
							if len(reduced) != len(full) {
								t.Errorf("reach %d states, oracle %d", len(reduced), len(full))
							}
							for _, s := range reduced {
								if !fullKeys[s.Key()] {
									t.Errorf("state %q not in oracle reach", s.Key())
								}
							}
						}

						// Invariant verdict must match the oracle's.
						verdict := true
						for _, s := range reduced {
							if !c.invariant(s) {
								verdict = false
								break
							}
						}
						if verdict != fullVerdict {
							t.Errorf("%s invariant verdict %v, oracle %v", mode, verdict, fullVerdict)
						}

						// The failing target must be caught, and its
						// witness must replay on the unreduced automaton.
						v, err := eng.CheckInvariant(context.Background(), a, c.target)
						if err != nil {
							t.Fatal(err)
						}
						if v == nil {
							t.Fatalf("%s missed the target violation the oracle reaches", mode)
						}
						if c.target(v.State) {
							t.Errorf("reported violation state satisfies the target predicate")
						}
						if err := reduce.ReplayTrace(oracleAuto, v.Trace); err != nil {
							t.Errorf("witness does not replay on the unreduced automaton: %v", err)
						}
						if got := v.Trace.States[len(v.Trace.States)-1]; got.Key() != v.State.Key() {
							t.Errorf("witness ends at %q, violation at %q", got.Key(), v.State.Key())
						}
					})
				}
			}
		})
	}
}
