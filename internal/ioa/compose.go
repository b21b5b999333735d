package ioa

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// A TupleState is a state of a composition: one component state per
// component automaton, in component order (§2.1.1).
type TupleState struct {
	parts []State
	key   string
}

var _ State = (*TupleState)(nil)

// NewTupleState builds a tuple state from component states.
func NewTupleState(parts []State) *TupleState {
	return newTupleStateOwned(append([]State(nil), parts...))
}

// Key implements State.
func (t *TupleState) Key() string { return t.key }

// At returns the i-th component state (the paper's a|Aᵢ projection on
// states).
func (t *TupleState) At(i int) State { return t.parts[i] }

// Len returns the number of components.
func (t *TupleState) Len() int { return len(t.parts) }

// stackComps is how many per-component values (keys, successor
// lists, enabled sets) a composite step gathers on the stack; wider
// compositions fall back to one heap slice per step.
const stackComps = 16

// newTupleStateOwned builds a tuple state taking ownership of parts
// (no defensive copy — callers must not retain the slice). Each
// component's Key is read once and the joined key is allocated once.
func newTupleStateOwned(parts []State) *TupleState {
	var buf [stackComps]string
	keys := buf[:0]
	if len(parts) > stackComps {
		keys = make([]string, 0, len(parts))
	}
	for _, p := range parts {
		keys = append(keys, p.Key())
	}
	return &TupleState{parts: parts, key: JoinKeys(keys...)}
}

// with1 returns a copy of t with only component i replaced — the
// single-owner fast path of composite steps.
func (t *TupleState) with1(i int, s State) *TupleState {
	parts := append([]State(nil), t.parts...)
	parts[i] = s
	return newTupleStateOwned(parts)
}

// A Composite is the composition A = ∏ᵢAᵢ of compatible automata
// (§2.1.1). Components synchronize on shared actions: when the
// composition performs π, every component with π in its signature
// performs π and every other component does not change state. The
// partition of the composition is the union of the components'
// partitions, with class names qualified by the component name.
type Composite struct {
	name  string
	comps []Automaton
	sig   Signature
	parts []Class
	// who[a] lists the indices of components having action a.
	who map[Action][]int
	// classOwner[i] is the component index owning composite class i.
	classOwner []int
	// memo caches per-component transition and enabled-set results
	// (one cache per component). Sound because Automaton requires
	// Next/Enabled to be deterministic functions of their arguments;
	// safe for concurrent exploration because each cache is sharded
	// behind RW mutexes.
	memo   []compMemo
	memoOn bool
	// nested[i] reports that component i is itself a composition
	// underneath its structural wrappers (see isComposition). Such a
	// component is never cached here: its own leaf caches already
	// hold the reusable work, while its states are as distinct as
	// this composite's, so a cache here would miss on nearly every
	// call and retain every successor list it ever built.
	nested []bool
	// obsMemo, when non-nil, counts cache hits and misses. Writes are
	// sharded by the memo hash, so concurrent workers touching
	// different shards also touch different counter stripes.
	obsMemo *obs.MemoMetrics
}

// memoShardCount shards each component cache to keep lock contention
// low under parallel exploration.
const memoShardCount = 16

// compMemo is one component's transition/enabled cache.
type compMemo struct {
	shards [memoShardCount]memoShard
}

type memoShard struct {
	mu sync.RWMutex
	// next maps a component state key to its per-action successor
	// lists (a present entry means "computed", even when empty).
	next map[string]map[Action][]State
	// enabled maps a component state key to the component's enabled
	// locally-controlled actions, cached verbatim.
	enabled map[string][]Action
	// hasEnabled marks enabled-cache presence (the cached slice may
	// legitimately be nil).
	hasEnabled map[string]struct{}
}

// memoHash assigns a state key to a cache shard (FNV-1a over the last
// 32 bytes — structured keys share long prefixes, so the tail carries
// the entropy and bounding the scan keeps hashing O(1) on big states).
func memoHash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	start := 0
	if len(key) > 32 {
		start = len(key) - 32
	}
	h := uint32(offset32)
	for i := start; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

var _ Automaton = (*Composite)(nil)

// Compose forms the composition of the given automata, which must be
// compatible (§2.1.1). At least one component is required.
func Compose(name string, comps ...Automaton) (*Composite, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("ioa: compose %s: no components", name)
	}
	sigs := make([]Signature, len(comps))
	for i, c := range comps {
		sigs[i] = c.Sig()
	}
	sig, err := ComposeSignatures(sigs...)
	if err != nil {
		return nil, fmt.Errorf("ioa: compose %s: %w", name, err)
	}
	who := make(map[Action][]int)
	for i, c := range comps {
		for a := range c.Sig().Acts() {
			who[a] = append(who[a], i)
		}
	}
	var parts []Class
	var owner []int
	for i, c := range comps {
		for _, cl := range c.Parts() {
			parts = append(parts, Class{
				Name:    c.Name() + "/" + cl.Name,
				Actions: cl.Actions.Clone(),
			})
			owner = append(owner, i)
		}
	}
	nested := make([]bool, len(comps))
	for i, c := range comps {
		nested[i] = isComposition(c)
	}
	return &Composite{
		name: name, comps: comps, sig: sig, parts: parts, who: who, classOwner: owner,
		memo: make([]compMemo, len(comps)), memoOn: true, nested: nested,
	}, nil
}

// isComposition reports whether a is a *Composite once every
// structural wrapper is peeled: Hide, Rename, and out-of-package
// wrappers implementing Wrapper. Any other out-of-package wrapper
// (e.g. the faults crash wrapper) is opaque, so the automaton it
// wraps counts as a leaf and keeps its memo.
func isComposition(a Automaton) bool {
	for {
		if _, ok := a.(*Composite); ok {
			return true
		}
		inner, _, ok := Peel(a)
		if !ok {
			return false
		}
		a = inner
	}
}

// memoized reports whether component i's steps go through the memo.
func (c *Composite) memoized(i int) bool { return c.memoOn && !c.nested[i] }

// SetMemo turns the per-component transition/enabled caches on or off
// (on by default). Off reproduces the uncached seed behavior, e.g.
// for benchmarking the cache itself. Components that are themselves
// compositions are never cached, whatever the setting. Not safe to
// toggle while other goroutines are stepping the composite.
func (c *Composite) SetMemo(on bool) { c.memoOn = on }

// SetObs attaches (or, with nil, detaches) memo-cache metrics.
// Observability never changes stepping behavior — only hit/miss
// counters. Not safe to toggle while other goroutines are stepping
// the composite.
func (c *Composite) SetObs(o *obs.Obs) {
	if o == nil {
		c.obsMemo = nil
		return
	}
	c.obsMemo = o.Memo
}

// SetObsDeep applies SetObs to every Composite in the automaton tree,
// descending through Hide/Rename wrappers and nested compositions —
// the same traversal as SetMemoDeep, and the one CLI entry points use
// to instrument a closed system in one call.
func SetObsDeep(a Automaton, o *obs.Obs) {
	switch w := a.(type) {
	case *Composite:
		w.SetObs(o)
		for _, comp := range w.comps {
			SetObsDeep(comp, o)
		}
	case *hidden:
		SetObsDeep(w.inner, o)
	case *Renamed:
		SetObsDeep(w.inner, o)
	default:
		// Extension point for wrappers defined outside this package
		// (e.g. the faults crash wrapper): they implement SetObs and
		// recurse into their inner automaton themselves.
		if x, ok := a.(interface{ SetObs(*obs.Obs) }); ok {
			x.SetObs(o)
		}
	}
}

// SetMemoDeep applies SetMemo to every Composite in the automaton
// tree, descending through Hide/Rename wrappers and nested
// compositions. Needed to benchmark a fully uncached system: a closed
// system is a composition whose arbiter component is itself a
// (renamed, hidden) composition with its own caches.
func SetMemoDeep(a Automaton, on bool) {
	switch w := a.(type) {
	case *Composite:
		w.SetMemo(on)
		for _, c := range w.comps {
			SetMemoDeep(c, on)
		}
	case *hidden:
		SetMemoDeep(w.inner, on)
	case *Renamed:
		SetMemoDeep(w.inner, on)
	}
}

// compNext is comp[i].Next(s, a) through the memo layer.
func (c *Composite) compNext(i int, s State, a Action) []State {
	if !c.memoized(i) {
		return c.comps[i].Next(s, a)
	}
	key := s.Key()
	h := memoHash(key)
	sh := &c.memo[i].shards[h%memoShardCount]
	sh.mu.RLock()
	if row, ok := sh.next[key]; ok {
		if out, ok := row[a]; ok {
			sh.mu.RUnlock()
			if m := c.obsMemo; m != nil {
				m.NextHit.AddShard(int(h), 1)
			}
			return out
		}
	}
	sh.mu.RUnlock()
	if m := c.obsMemo; m != nil {
		m.NextMiss.AddShard(int(h), 1)
	}
	out := c.comps[i].Next(s, a)
	sh.mu.Lock()
	if sh.next == nil {
		sh.next = make(map[string]map[Action][]State)
	}
	row, ok := sh.next[key]
	if !ok {
		row = make(map[Action][]State)
		sh.next[key] = row
	}
	row[a] = out
	sh.mu.Unlock()
	return out
}

// compEnabled is comp[i].Enabled(s) through the memo layer. The
// component's result is cached verbatim (same actions, same order),
// so callers observe exactly the uncached behavior.
func (c *Composite) compEnabled(i int, s State) []Action {
	if !c.memoized(i) {
		return c.comps[i].Enabled(s)
	}
	key := s.Key()
	h := memoHash(key)
	sh := &c.memo[i].shards[h%memoShardCount]
	sh.mu.RLock()
	if _, ok := sh.hasEnabled[key]; ok {
		out := sh.enabled[key]
		sh.mu.RUnlock()
		if m := c.obsMemo; m != nil {
			m.EnabledHit.AddShard(int(h), 1)
		}
		return out
	}
	sh.mu.RUnlock()
	if m := c.obsMemo; m != nil {
		m.EnabledMiss.AddShard(int(h), 1)
	}
	out := c.comps[i].Enabled(s)
	sh.mu.Lock()
	if sh.enabled == nil {
		sh.enabled = make(map[string][]Action)
		sh.hasEnabled = make(map[string]struct{})
	}
	sh.enabled[key] = out
	sh.hasEnabled[key] = struct{}{}
	sh.mu.Unlock()
	return out
}

// MustCompose is Compose but panics on error.
func MustCompose(name string, comps ...Automaton) *Composite {
	c, err := Compose(name, comps...)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Automaton.
func (c *Composite) Name() string { return c.name }

// Sig implements Automaton.
func (c *Composite) Sig() Signature { return c.sig }

// Components returns the component automata (do not mutate).
func (c *Composite) Components() []Automaton { return c.comps }

// Start implements Automaton: the Cartesian product of component start
// states.
func (c *Composite) Start() []State {
	combos := [][]State{nil}
	for _, comp := range c.comps {
		starts := comp.Start()
		next := make([][]State, 0, len(combos)*len(starts))
		for _, prefix := range combos {
			for _, s := range starts {
				row := append(append([]State(nil), prefix...), s)
				next = append(next, row)
			}
		}
		combos = next
	}
	out := make([]State, 0, len(combos))
	for _, row := range combos {
		out = append(out, NewTupleState(row))
	}
	return out
}

// Next implements Automaton: all components sharing the action step
// simultaneously; others are unchanged. It collects VisitNext, the
// one stepping path.
func (c *Composite) Next(s State, a Action) []State {
	var out []State
	c.VisitNext(s, a, func(nxt State) bool {
		out = append(out, nxt)
		return true
	})
	return out
}

// Enabled implements Automaton. By Corollary 3 of the paper, a
// locally-controlled action of component i is enabled in the
// composition iff it is enabled in component i (all other components
// see it as an input, which is always enabled). The result is a fresh
// slice sized once; cached component slices are only read.
func (c *Composite) Enabled(s State) []Action {
	ts, ok := s.(*TupleState)
	if !ok {
		return nil
	}
	var buf [stackComps][]Action
	lists := buf[:0]
	if len(c.comps) > stackComps {
		lists = make([][]Action, 0, len(c.comps))
	}
	n := 0
	for i := range c.comps {
		l := c.compEnabled(i, ts.At(i))
		lists = append(lists, l)
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	out := make([]Action, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Parts implements Automaton.
func (c *Composite) Parts() []Class { return c.parts }

// ProjectExecution computes x|Aᵢ (Lemma 1): the execution of component
// i induced by an execution x of the composition, obtained by deleting
// steps whose action is not an action of Aᵢ and projecting states.
func (c *Composite) ProjectExecution(x *Execution, i int) (*Execution, error) {
	if i < 0 || i >= len(c.comps) {
		return nil, fmt.Errorf("ioa: component index %d out of range", i)
	}
	comp := c.comps[i]
	acts := comp.Sig().Acts()
	first, ok := x.States[0].(*TupleState)
	if !ok {
		return nil, fmt.Errorf("ioa: execution state is not a tuple state")
	}
	proj := &Execution{Auto: comp, States: []State{first.At(i)}}
	for k, a := range x.Acts {
		if !acts.Has(a) {
			continue
		}
		ts, ok := x.States[k+1].(*TupleState)
		if !ok {
			return nil, fmt.Errorf("ioa: execution state is not a tuple state")
		}
		proj.Acts = append(proj.Acts, a)
		proj.States = append(proj.States, ts.At(i))
	}
	return proj, nil
}
