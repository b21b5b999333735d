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
// path allocate no intermediate []State per (state, action) step.
// Reach and CheckInvariant run one engine, the level-synchronized BFS
// of parallel.go, at every worker count including 1: visit order is
// BFS depth order, key-sorted within each depth, and witnesses follow
// the least (parent, action) crumb chain, so results are bit-identical
// at any Options.Workers. reference.go keeps the string-keyed seed
// explorer as the differential oracle; its levels, key-sorted, are that
// order.

import (
	"context"
	"fmt"
	"runtime"
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
	// GOMAXPROCS. It changes only speed: states, order, verdicts, and
	// witnesses are the same at every count.
	Workers int
	// Limit is the maximum number of states to admit (0 =
	// DefaultLimit). The partial result holds exactly Limit states and
	// ErrLimit is returned iff an unseen state remains.
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
	// concrete representative per orbit is admitted — the least-keyed
	// candidate of the earliest level. Results stay concrete states and
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
	// pins it — at bounded RAM. Canon applies to either backend.
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

// ctxOr normalizes a nil context.
func ctxOr(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Reach computes the reachable states of a, visiting at most
// Options.Limit states. The order is BFS depth order, key-sorted within
// each depth (ReferenceReach's levels, each sorted by key), the same at
// every worker count. It returns ErrLimit (with a partial result of
// exactly Limit states, a prefix of the unbounded order) iff an unseen
// state remains, and ctx.Err() (with the partial result so far) on
// cancellation.
func (e *Engine) Reach(ctx context.Context, a ioa.Automaton) ([]ioa.State, error) {
	order, _, _, err := e.parallelExplore(ctx, a, nil)
	return order, err
}

// CheckInvariant explores reachable states (up to Options.Limit) and
// checks pred at each in Reach order, returning the first violation
// found with a witness execution, or nil if the invariant holds on
// every explored state. The witness is minimal-length and canonical:
// each step is the least (parent, action) pair that discovers its
// state, so violation and witness are identical at every worker count.
// Unlike Reach, a full store is ErrLimit even on an exact fit, because
// witnesses past the budget could not be built. pred is only called
// from the coordinating goroutine.
func (e *Engine) CheckInvariant(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (*Violation, error) {
	if pred == nil {
		return nil, fmt.Errorf("explore: CheckInvariant: nil predicate")
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
