package explore

// The Engine facade: the package's analyses (Reach, CheckInvariant,
// Deadlocks, Behaviors, Schedules, Execs, SameBehaviors, FindLasso,
// plus the diagnostic EnabledReport and WriteDOT) are methods of one
// type constructed from Options, with context.Context cancellation on
// every method.
//
// Internally every explorer dedups through internal/store: states are
// byte-encoded once (ioa.AppendState — the Encoder fast path with a
// Key() fallback), interned into arena-backed shards, and tracked by
// dense uint64 IDs instead of string-keyed maps; successor enumeration
// goes through ioa.VisitNext so implementations with a Stepper fast
// path allocate no intermediate []State per (state, action) step. The
// sequential visit order is bit-identical to the string-keyed seed
// explorer (reference.go keeps it as the differential oracle):
// interning preserves first-insertion order, and encoding equality
// coincides with Key() equality by the Encoder contract.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultLimit is the state budget used when Options.Limit is zero.
const DefaultLimit = 1 << 20

// Options parameterizes an exploration Engine.
type Options struct {
	// Workers is the number of exploration goroutines. 0 means
	// GOMAXPROCS; 1 runs the sequential engine.
	Workers int
	// Limit is the maximum number of states to admit (0 =
	// DefaultLimit). The ErrLimit contract is shared by both engines:
	// the partial result holds exactly Limit states and ErrLimit is
	// returned iff an unseen state remains.
	Limit int
	// Obs, when non-nil, enables observability: per-level spans and
	// frontier/latency histograms, per-worker expansion spans,
	// successor counters, and the state-store occupancy and
	// arena-bytes gauges. Nil (the default) is the disabled fast path —
	// the engine performs no clock reads and no metric writes.
	// Observability never affects the explored state set.
	Obs *obs.Obs
	// Now optionally overrides the clock behind the engine's own timing
	// measurements (the per-level wall-time histogram). Nil means the
	// Obs tracer clock, which itself defaults to testseed.Now; with Obs
	// nil the engine reads no clock at all.
	Now func() time.Time
	// Canon, when non-nil, quotients the explored state space by a
	// symmetry: the state store dedups canonical encodings, so one
	// concrete representative per orbit is admitted — the first
	// discovered sequentially, the least-keyed candidate of the
	// earliest level in parallel. Results stay concrete states and
	// witness traces stay genuine executions; invariant predicates
	// must be orbit-invariant (the symmetry must be an automorphism of
	// the automaton — see the reduce package, whose differential
	// battery enforces both obligations).
	Canon store.Canonicalizer
	// Spill, when non-nil, backs every seen set with the disk-spilling
	// store implementation (store.NewSpill) instead of the in-RAM
	// arena: interned encodings flush to delta-encoded sorted runs once
	// the hot batch exceeds its byte budget, and membership probes
	// merge-on-lookup across the runs. Exploration results are
	// bit-identical to the arena backend — the differential battery
	// pins it — at bounded RAM. Canon is threaded through
	// automatically; a set Spill.Canon is ignored.
	Spill *store.SpillOptions
	// Decode rebuilds a state from its canonical encoding. It is only
	// required by Census's external mode, which keeps frontiers on disk
	// as encodings and must re-expand them; systems whose encodings are
	// self-describing (KeyState systems, internal/grid) provide it
	// trivially. Reach and CheckInvariant never call it.
	Decode func(enc []byte) (ioa.State, error)
}

// workers resolves the worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// limit resolves the state budget.
func (o Options) limit() int {
	if o.Limit > 0 {
		return o.Limit
	}
	return DefaultLimit
}

// An Engine runs finite-state analyses of I/O automata under one
// Options bundle. Engines are stateless between calls (each method
// builds a fresh state store), so one Engine may be shared and its
// methods called concurrently.
type Engine struct {
	opts Options
}

// New builds an Engine from opts.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Opts returns the engine's options.
func (e *Engine) Opts() Options { return e.opts }

// now reads the engine's measurement clock.
func (e *Engine) now() time.Time {
	if e.opts.Now != nil {
		return e.opts.Now()
	}
	return e.opts.Obs.Tracer.Now()
}

// newSeen builds the engine's seen set: the disk-spilling store when
// Options.Spill is set, the in-RAM arena otherwise. The engine's Canon
// is threaded into either backend.
func (e *Engine) newSeen() (store.SeenSet, error) {
	if e.opts.Spill != nil {
		o := *e.opts.Spill
		o.Canon = e.opts.Canon
		return store.NewSpill(o)
	}
	return store.New(store.Options{Canon: e.opts.Canon}), nil
}

// seenErr wraps a latched storage error for return from an engine
// method.
func seenErr(a ioa.Automaton, err error) error {
	return fmt.Errorf("explore: %s: storage: %w", a.Name(), err)
}

// storeGauges publishes the store's occupancy to the obs gauges.
func storeGauges(o *obs.Obs, st store.SeenSet) {
	if o == nil {
		return
	}
	s := st.Stats()
	o.Store.Occupancy.Set(int64(s.States))
	o.Store.ArenaBytes.Set(s.ArenaBytes)
	o.Store.ArenaCapBytes.Set(s.ArenaCapBytes)
	o.Store.SpilledBytes.Set(s.SpilledBytes)
	o.Store.SpillRuns.Set(int64(s.SpillRuns))
}

// seqProgressStride is how many expanded states separate progress
// snapshots in the sequential sweeps (power of two; the check rides
// the existing i&63 cancellation branch, so the hot path gains no new
// comparison when observability is off).
const seqProgressStride = 8192

// emitSeqProgress publishes one sequential-sweep progress snapshot:
// admitted states, the unexpanded suffix as the frontier, and the
// store footprint. Raw counts only — the ledger derives rates.
func emitSeqProgress(o *obs.Obs, admitted, expanded int, st store.SeenSet, done bool) {
	if o == nil {
		return
	}
	s := st.Stats()
	o.EmitProgress(obs.Progress{
		Phase:        "explore",
		States:       int64(admitted),
		Frontier:     int64(admitted - expanded),
		Occupancy:    int64(s.States),
		ArenaBytes:   s.ArenaBytes,
		SpilledBytes: s.SpilledBytes,
		Done:         done,
	})
}

// ctxOr normalizes a nil context.
func ctxOr(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Reach computes the reachable states of a, visiting at most
// Options.Limit states, sequentially at one worker and via the sharded
// parallel engine otherwise. The result is deterministic for a given
// worker mode: the sequential order is BFS discovery order (bit-
// identical to ReferenceReach); the parallel order is BFS-depth order,
// key-sorted within each depth, independent of the worker count. It
// returns ErrLimit (with a partial result of exactly Limit states) iff
// an unseen state remains, and ctx.Err() (with the partial result so
// far) on cancellation.
func (e *Engine) Reach(ctx context.Context, a ioa.Automaton) ([]ioa.State, error) {
	ctx = ctxOr(ctx)
	if e.opts.workers() <= 1 {
		order, _, err := e.seqExplore(ctx, a, nil)
		return order, err
	}
	order, _, _, err := e.parallelExplore(ctx, a, nil)
	return order, err
}

// CheckInvariant explores reachable states (up to Options.Limit) and
// checks pred at each, returning the first violation found with a
// witness execution, or nil if the invariant holds on every explored
// state. At one worker the search and the witness are bit-identical to
// the seed CheckInvariant; in parallel the verdict agrees whenever the
// reachable state count is below the limit and any reported violation
// is a true, reachable violation with a minimal-length canonical
// witness. pred is only called from the coordinating goroutine.
func (e *Engine) CheckInvariant(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (*Violation, error) {
	ctx = ctxOr(ctx)
	if pred == nil {
		return nil, fmt.Errorf("explore: CheckInvariant: nil predicate")
	}
	if e.opts.workers() <= 1 {
		_, v, err := e.seqExplore(ctx, a, pred)
		return v, err
	}
	_, v, _, err := e.parallelExplore(ctx, a, pred)
	return v, err
}

// Deadlocks returns the reachable states from which no
// locally-controlled action is enabled. (Such states end finite fair
// executions, §2.2.1.)
func (e *Engine) Deadlocks(ctx context.Context, a ioa.Automaton) ([]ioa.State, error) {
	states, err := e.Reach(ctx, a)
	if err != nil {
		return nil, err
	}
	var out []ioa.State
	for _, s := range states {
		if len(a.Enabled(s)) == 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// actionScratch enumerates, per state, the actions worth stepping:
// Enabled(s) merged with the input actions, sorted. For I/O automata
// this loses nothing — inputs are enabled in every state
// (input-enabledness, §2.1) and a locally-controlled action outside
// Enabled(s) has no step — and because the merged list is sorted, the
// successors appear in exactly the order the seed explorer's
// all-actions sweep discovers them, so visit order stays
// bit-identical while |acts(A)| − |enabled(s)| transition probes are
// skipped. Duplicates (an Enabled implementation that also reports
// inputs) are harmless: the second pass finds every successor already
// interned.
type actionScratch struct {
	inputs []ioa.Action
	buf    []ioa.Action
}

func newActionScratch(a ioa.Automaton) *actionScratch {
	return &actionScratch{inputs: a.Sig().Inputs().Sorted()}
}

// step returns the sorted actions to probe from s. The slice is reused
// across calls; callers must not retain it.
func (c *actionScratch) step(a ioa.Automaton, s ioa.State) []ioa.Action {
	// Copy before sorting: the memo layer may hand out a shared cached
	// Enabled slice.
	c.buf = append(c.buf[:0], a.Enabled(s)...)
	c.buf = append(c.buf, c.inputs...)
	sort.Slice(c.buf, func(i, j int) bool { return c.buf[i] < c.buf[j] })
	return c.buf
}

// seqExplore is the sequential engine under the one-worker Reach and
// CheckInvariant paths, shaped like parallelExplore. The frontier is
// the unexpanded suffix of the admitted-states slice itself (every
// state is expanded exactly once, in admission order), so visit order
// is bit-identical to the seed explorer's explicit queue.
//
// With pred nil (Reach) the budget is probed, not enforced: once
// Limit states are admitted, the first unseen successor aborts with
// ErrLimit and the partial result, while an exact fit (budget full, no
// unseen successor anywhere) completes with a nil error. With pred set
// (CheckInvariant) each state is checked as it is dequeued, the first
// failure is returned with a witness rebuilt from the per-state
// crumbs, and a full store is an ErrLimit even when the frontier is
// about to empty, because witnesses for states past the budget could
// not be built.
func (e *Engine) seqExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) ([]ioa.State, *Violation, error) {
	limit := e.opts.limit()
	o := e.opts.Obs
	if o != nil {
		span := "reach-seq "
		if pred != nil {
			span = "check-seq "
		}
		defer o.Tracer.Span(0, "explore", span+a.Name())()
	}
	scratch := newActionScratch(a)
	st, err := e.newSeen()
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer st.Close()
	var states []ioa.State // indexed by admission order
	var crumbs []crumb     // indexed like states; only kept for witnesses
	cur := crumb{parent: store.None}
	admit := func(s ioa.State) {
		if _, fresh := st.Intern(s); fresh {
			states = append(states, s)
			if pred != nil {
				crumbs = append(crumbs, cur)
			}
		}
	}
	for _, s := range a.Start() {
		admit(s)
	}
	// One yield closure for the whole sweep. In Reach's probe mode the
	// first unseen successor past a full budget aborts the enumeration.
	yield := func(nxt ioa.State) bool {
		if pred == nil && len(states) >= limit {
			_, seen := st.Has(nxt)
			return seen
		}
		admit(nxt)
		return true
	}
	for i := 0; i < len(states); i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return states, nil, err
			}
			if err := st.Err(); err != nil {
				return states, nil, seenErr(a, err)
			}
			if i&(seqProgressStride-1) == 0 && i > 0 {
				emitSeqProgress(o, len(states), i, st, false)
			}
		}
		s := states[i]
		if pred != nil {
			if !pred(s) {
				return states, &Violation{State: s, Trace: witnessFromCrumbs(a, states, crumbs, store.ID(i))}, nil
			}
			if len(states) >= limit {
				storeGauges(o, st)
				return states, nil, errLimit(a, limit)
			}
		}
		cur.parent = store.ID(i)
		for _, act := range scratch.step(a, s) {
			cur.act = act
			if !ioa.VisitNext(a, s, act, yield) {
				if err := st.Err(); err != nil {
					return states, nil, seenErr(a, err)
				}
				storeGauges(o, st)
				emitSeqProgress(o, len(states), len(states), st, true)
				return states, nil, errLimit(a, limit)
			}
		}
	}
	if err := st.Err(); err != nil {
		return states, nil, seenErr(a, err)
	}
	storeGauges(o, st)
	if o != nil {
		o.Explore.States.Add(int64(len(states)))
	}
	emitSeqProgress(o, len(states), len(states), st, true)
	return states, nil, nil
}
