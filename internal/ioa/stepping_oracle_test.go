package ioa_test

// Independent stepping oracle for compositions. Composite.Next
// collects Composite.VisitNext, so the explorers' own oracle
// (explore.ReferenceReach, which calls Next) no longer checks the
// composite stepping code independently. refCompositeNext keeps the
// original map-based cross product, and refNext applies it
// recursively through Hide/Rename wrappers, so every nested
// composition is stepped by the reference too. For every reachable
// state × action of each battery system, Next and VisitNext must
// agree with the reference elementwise (same successors, same
// order), VisitNext must honour early stop at every cut, and Enabled
// must be exactly the locally-controlled actions with a step.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/testseed"
)

// refCompositeNext is the original cross-product step of a
// composition: every owner of a steps (each owner's successors in
// order, the first owner varying slowest), every other component
// keeps its state.
func refCompositeNext(c *ioa.Composite, s ioa.State, a ioa.Action) []ioa.State {
	ts, ok := s.(*ioa.TupleState)
	comps := c.Components()
	if !ok || ts.Len() != len(comps) {
		return nil
	}
	var owners []int
	for i, comp := range comps {
		if comp.Sig().HasAction(a) {
			owners = append(owners, i)
		}
	}
	if len(owners) == 0 {
		return nil
	}
	choices := make([][]ioa.State, len(owners))
	for k, i := range owners {
		next := refNext(comps[i], ts.At(i), a)
		if len(next) == 0 {
			return nil
		}
		choices[k] = next
	}
	results := []map[int]ioa.State{{}}
	for k, i := range owners {
		var expanded []map[int]ioa.State
		for _, partial := range results {
			for _, nxt := range choices[k] {
				m := make(map[int]ioa.State, len(partial)+1)
				for idx, st := range partial {
					m[idx] = st
				}
				m[i] = nxt
				expanded = append(expanded, m)
			}
		}
		results = expanded
	}
	out := make([]ioa.State, 0, len(results))
	for _, updates := range results {
		parts := make([]ioa.State, ts.Len())
		for i := range parts {
			parts[i] = ts.At(i)
		}
		for i, st := range updates {
			parts[i] = st
		}
		out = append(out, ioa.NewTupleState(parts))
	}
	return out
}

// refNext steps a through the reference: compositions by
// refCompositeNext, Hide/Rename wrappers by peeling (the battery's
// systems use no other peelable wrapper), and everything else by its
// own Next.
func refNext(a ioa.Automaton, s ioa.State, act ioa.Action) []ioa.State {
	if c, ok := a.(*ioa.Composite); ok {
		return refCompositeNext(c, s, act)
	}
	if inner, m, ok := ioa.Peel(a); ok {
		if !a.Sig().HasAction(act) {
			return nil
		}
		if m != nil {
			act = m.Invert(act)
		}
		return refNext(inner, s, act)
	}
	return a.Next(s, act)
}

// refReach is breadth-first reachability over refNext on every
// signature action, bounded by limit states.
func refReach(t *testing.T, a ioa.Automaton, limit int) []ioa.State {
	t.Helper()
	acts := a.Sig().Acts().Sorted()
	seen := make(map[string]bool)
	var states []ioa.State
	for _, s := range a.Start() {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			states = append(states, s)
		}
	}
	for i := 0; i < len(states); i++ {
		for _, act := range acts {
			for _, nxt := range refNext(a, states[i], act) {
				if !seen[nxt.Key()] {
					seen[nxt.Key()] = true
					states = append(states, nxt)
				}
			}
		}
		if len(states) > limit {
			t.Fatalf("%s: more than %d reachable states", a.Name(), limit)
		}
	}
	return states
}

func sameKeys(got, want []ioa.State) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d successors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			return fmt.Errorf("successor %d is %q, want %q", i, got[i].Key(), want[i].Key())
		}
	}
	return nil
}

// assertSteppingMatchesReference sweeps every reachable state and
// signature action of a.
func assertSteppingMatchesReference(t *testing.T, a ioa.Automaton) {
	t.Helper()
	acts := a.Sig().Acts().Sorted()
	local := a.Sig().Local()
	for _, s := range refReach(t, a, 20000) {
		withStep := make(ioa.Set)
		for _, act := range acts {
			want := refNext(a, s, act)
			if len(want) > 0 && local.Has(act) {
				withStep.Add(act)
			}
			if err := sameKeys(a.Next(s, act), want); err != nil {
				t.Fatalf("%s: Next(%q, %s): %v", a.Name(), s.Key(), act, err)
			}
			var got []ioa.State
			if !ioa.VisitNext(a, s, act, func(n ioa.State) bool {
				got = append(got, n)
				return true
			}) {
				t.Fatalf("%s: VisitNext(%q, %s) stopped without being asked to", a.Name(), s.Key(), act)
			}
			if err := sameKeys(got, want); err != nil {
				t.Fatalf("%s: VisitNext(%q, %s): %v", a.Name(), s.Key(), act, err)
			}
			for cut := 1; cut <= len(want); cut++ {
				var prefix []ioa.State
				done := ioa.VisitNext(a, s, act, func(n ioa.State) bool {
					prefix = append(prefix, n)
					return len(prefix) < cut
				})
				if done {
					t.Fatalf("%s: VisitNext(%q, %s) reported completion after yield returned false", a.Name(), s.Key(), act)
				}
				if err := sameKeys(prefix, want[:cut]); err != nil {
					t.Fatalf("%s: VisitNext(%q, %s) stopped at %d: %v", a.Name(), s.Key(), act, cut, err)
				}
			}
		}
		enabled := a.Enabled(s)
		if got := ioa.NewSet(enabled...); len(got) != len(enabled) || got.Minus(withStep).Len() > 0 || withStep.Minus(got).Len() > 0 {
			t.Fatalf("%s: Enabled(%q) = %v, want the local actions with a step %v",
				a.Name(), s.Key(), enabled, withStep.Sorted())
		}
	}
}

// ndTable is a random table automaton whose every action is
// nondeterministic: each input has 1–3 successors from every state
// (input-enabledness), each locally-controlled action 0–2.
func ndTable(rng *rand.Rand, name string, in, out, internal []ioa.Action) *ioa.Table {
	const nStates = 3
	states := make([]ioa.State, nStates)
	for i := range states {
		states[i] = ioa.KeyState(name + strconv.Itoa(i))
	}
	var steps []ioa.Step
	add := func(acts []ioa.Action, min, max int) {
		for _, act := range acts {
			for _, from := range states {
				for k := min + rng.Intn(max-min+1); k > 0; k-- {
					steps = append(steps, ioa.Step{From: from, Act: act, To: states[rng.Intn(nStates)]})
				}
			}
		}
	}
	add(in, 1, 3)
	add(out, 0, 2)
	add(internal, 0, 2)
	var classes []ioa.Class
	for _, act := range append(append([]ioa.Action(nil), out...), internal...) {
		classes = append(classes, ioa.Class{Name: name + "-" + string(act), Actions: ioa.NewSet(act)})
	}
	return ioa.MustTable(name, ioa.MustSignature(in, out, internal), states[:1], steps, classes)
}

// ndParts builds the random components: D, whose output go has four
// owners; P1, whose output x has three; P2, whose output y has two;
// and P3. Each has a private internal action.
func ndParts(rng *rand.Rand) (d, p1, p2, p3 *ioa.Table) {
	d = ndTable(rng, "D", nil, []ioa.Action{"go"}, []ioa.Action{"hd"})
	p1 = ndTable(rng, "P", []ioa.Action{"go", "y"}, []ioa.Action{"x"}, []ioa.Action{"h1"})
	p2 = ndTable(rng, "Q", []ioa.Action{"go", "x"}, []ioa.Action{"y"}, []ioa.Action{"h2"})
	p3 = ndTable(rng, "R", []ioa.Action{"go", "x"}, nil, []ioa.Action{"h3"})
	return d, p1, p2, p3
}

// ndSystems are random compositions with multi-owner
// nondeterministic actions: flat, with a hidden and renamed
// composition nested first or last among the owners, and with a
// composition under an opaque crash wrapper.
func ndSystems(t *testing.T, rng *rand.Rand) []ioa.Automaton {
	t.Helper()
	d, p1, p2, p3 := ndParts(rng)
	inner := func() ioa.Automaton {
		pq := ioa.Hide(ioa.MustCompose("PQ", p1, p2), ioa.NewSet("y"))
		r, err := ioa.Rename(pq, ioa.MustMapping(map[ioa.Action]ioa.Action{"h1": "h1r"}))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	crashed, err := faults.CrashRestart(ioa.MustCompose("PQ", p1, p2), "pq", faults.Resume)
	if err != nil {
		t.Fatal(err)
	}
	return []ioa.Automaton{
		ioa.MustCompose("flat", d, p1, p2, p3),
		ioa.MustCompose("nested-first", inner(), p3, d),
		ioa.MustCompose("nested-last", d, p3, inner()),
		ioa.MustCompose("crash-over-composite", crashed, p3, d),
	}
}

// steppingSystems is the oracle battery: the closed arbiter levels
// 1–3 and the star arbiter at 3 users, a ring of crash-wrapped
// processes, and random nondeterministic compositions.
func steppingSystems(t *testing.T) []ioa.Automaton {
	t.Helper()
	var out []ioa.Automaton
	for level := 1; level <= 3; level++ {
		a, err := bench.ExploreSystem(level, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	star, err := bench.StarSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, star)
	sys, err := ring.New(spec.DefaultUsers(3))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]ioa.Automaton, len(sys.Procs))
	for i, p := range sys.Procs {
		if procs[i], err = faults.CrashRestart(p, "p"+strconv.Itoa(i), faults.Reset); err != nil {
			t.Fatal(err)
		}
	}
	out = append(out, ioa.MustCompose("ring-crash", procs...))
	base := testseed.Base(t)
	for seed := int64(0); seed < 4; seed++ {
		out = append(out, ndSystems(t, rand.New(rand.NewSource(base+2100+seed)))...)
	}
	return out
}

func TestCompositeSteppingOracle(t *testing.T) {
	for _, memo := range []bool{true, false} {
		for i, a := range steppingSystems(t) {
			ioa.SetMemoDeep(a, memo)
			t.Run(fmt.Sprintf("%s-%d/memo=%t", a.Name(), i, memo), func(t *testing.T) {
				assertSteppingMatchesReference(t, a)
			})
		}
	}
}
