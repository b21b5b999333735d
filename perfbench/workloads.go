package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/induct"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// counts are a verdict's oracle-checked numbers, by name.
type counts map[string]int64

// An outcome is what one verdict returned.
type outcome struct {
	counts counts
	// states is the denominator of the per-state metrics: states
	// admitted, or domain states checked for induction.
	states int64
	// cluster is the coordinator's result, whose barrier wait and
	// shard sizes are per-layer numbers (grid-cluster only).
	cluster *cluster.Result
}

// A prepared verdict: set-up has run, verdict runs the engine once,
// and release frees what set-up acquired.
type prepared struct {
	verdict func(ctx context.Context) (outcome, error)
	release func() error
}

// A workload builds its system at one size and states the oracle its
// verdict must meet.
type workload struct {
	name   string
	expect counts
	// par is how many goroutines expand states in the workload's
	// breadth-first engine (explore workers or cluster ranks); 0 for
	// induction, which has no BFS engine.
	par     int
	prepare func(env *env) (*prepared, error)
}

// env is what set-up may use: a scratch directory the rep owns, and
// the tally of a traced rep (nil when untraced).
type env struct {
	dir string
	t   *tally
}

// automaton wraps a when the rep is traced.
func (e *env) automaton(a ioa.Automaton) ioa.Automaton {
	if e.t == nil {
		return a
	}
	return &tracedAutomaton{Automaton: a, t: e.t}
}

// obs is the engine's observability sink: on only when traced.
func (e *env) obs() *obs.Obs {
	if e.t == nil {
		return nil
	}
	return e.t.obs
}

// spill returns the disk-spilling store options for one seen set,
// in its own directory under the rep's scratch directory.
func (e *env) spill(name string, budget int64) (*store.SpillOptions, error) {
	dir := filepath.Join(e.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill dir: %w", err)
	}
	o := &store.SpillOptions{Dir: dir, MemBudget: budget}
	if e.t != nil {
		o.AfterFlush = e.t.afterFlush
	}
	return o, nil
}

// sizes are the two scales every workload runs at: full for the
// benchmark, tiny for the benchmark's own tests.
type sizes struct {
	arbiterUsers, arbiterStates int
	gridM, gridK                int
	spillBudget                 int64
}

var (
	fullSize = sizes{
		arbiterUsers: 6, arbiterStates: 24976,
		gridM: 10, gridK: 5, spillBudget: 128 << 10,
	}
	tinySize = sizes{
		arbiterUsers: 2, arbiterStates: 14,
		gridM: 4, gridK: 4, spillBudget: 1 << 10,
	}
)

// workloads lists the benchmark's workloads at size z, in
// BENCHMARK.json order.
func workloads(z sizes) []workload {
	g, err := grid.New(z.gridM, z.gridK)
	if err != nil {
		panic(err) // sizes are constants
	}
	clusterExpect := counts{"states": g.States(), "depth": g.Depth(), "deadlocks": 1, "per_rank_sum": g.States()}
	return []workload{
		{
			name:    "arbiter3-tree",
			par:     arbiterWorkers,
			expect:  counts{"states": int64(z.arbiterStates), "violations": 0},
			prepare: func(e *env) (*prepared, error) { return prepareArbiter(e, z) },
		},
		{
			name:    "grid-cluster",
			par:     clusterRanks,
			expect:  clusterExpect,
			prepare: func(e *env) (*prepared, error) { return prepareGridCluster(e, z) },
		},
		{
			name: "lamport-induct",
			expect: counts{
				"inductive": 1, "adequacy_checked": 1,
				"domain_states": 518400, "candidates": 103, "transitions": 143,
			},
			prepare: prepareLamport,
		},
	}
}

func findWorkload(z sizes, name string) (workload, bool) {
	for _, w := range workloads(z) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func noRelease() error { return nil }

func sortedKeys(c counts) []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// arbiterWorkers is the explore worker count of arbiter3-tree.
const arbiterWorkers = 2

// prepareArbiter: the §3.3 distributed arbiter over a binary tree with
// heavy-load users, checked for mutual exclusion by the parallel
// engine at two workers.
func prepareArbiter(e *env, z sizes) (*prepared, error) {
	a, err := bench.ExploreSystem(3, z.arbiterUsers)
	if err != nil {
		return nil, err
	}
	a = e.automaton(a)
	// The engine calls pred once per admitted state, from one
	// goroutine, so a plain counter gives the state count.
	var admitted int64
	pred := func(s ioa.State) bool {
		admitted++
		return bench.MutexInvariant(s)
	}
	if e.t != nil {
		pred = e.t.pred(pred)
	}
	eng := explore.New(explore.Options{Workers: arbiterWorkers, Obs: e.obs()})
	return &prepared{
		verdict: func(ctx context.Context) (outcome, error) {
			v, err := eng.CheckInvariant(ctx, a, pred)
			c := counts{"states": admitted, "violations": 0}
			if v != nil {
				c["violations"] = 1
			}
			return outcome{counts: c, states: admitted}, err
		},
		release: noRelease,
	}, nil
}

// clusterRanks is the rank count of grid-cluster: one per core of the
// two-core host the benchmark was sized on.
const clusterRanks = 2

// joinedListener hands Coordinate connections that set-up already
// accepted, so joining the ranks is timed as set-up, not as verdict.
type joinedListener struct {
	net.Listener
	conns []net.Conn
}

func (l *joinedListener) Accept() (net.Conn, error) {
	if len(l.conns) == 0 {
		return nil, errors.New("perfbench: no joined rank left")
	}
	c := l.conns[0]
	l.conns = l.conns[1:]
	return c, nil
}

// prepareGridCluster: the base-m counter grid sharded over in-process
// ranks talking loopback TCP through the coordinator, each rank's seen
// set spilled to disk behind a small hot budget.
func prepareGridCluster(e *env, z sizes) (*prepared, error) {
	g, err := grid.New(z.gridM, z.gridK)
	if err != nil {
		return nil, err
	}
	// The oracle's deadlock count rides the rank-side invariant hook,
	// which sees every admitted state once.
	var deadlocks atomic.Int64
	pred := func(s ioa.State) bool {
		if len(g.Enabled(s)) == 0 {
			deadlocks.Add(1)
		}
		return true
	}
	if e.t != nil {
		pred = e.t.pred(pred)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workErr := make(chan error, clusterRanks)
	started := 0
	jl := &joinedListener{Listener: ln}
	release := func() error {
		cancel()
		ln.Close()
		for _, c := range jl.conns {
			c.Close() // joined but never handed to Coordinate
		}
		var errs []error
		for ; started > 0; started-- {
			errs = append(errs, <-workErr)
		}
		return errors.Join(errs...)
	}
	for r := 0; r < clusterRanks; r++ {
		sp, err := e.spill(fmt.Sprintf("rank%d", r), z.spillBudget)
		if err != nil {
			release()
			return nil, err
		}
		cfg := cluster.Config{
			Addr: ln.Addr().String(),
			Build: func() (ioa.Automaton, error) {
				g, err := grid.New(z.gridM, z.gridK)
				if err != nil {
					return nil, err
				}
				return e.automaton(g), nil
			},
			Pred:  pred,
			Spill: sp,
		}
		started++
		go func() { workErr <- cluster.Work(ctx, cfg) }()
	}
	// Join: accept every rank before the verdict starts. A rank that
	// never dials fails set-up at the deadline instead of hanging.
	if err := ln.(*net.TCPListener).SetDeadline(testseed.Now().Add(30 * time.Second)); err != nil {
		release()
		return nil, err
	}
	for len(jl.conns) < clusterRanks {
		c, err := ln.Accept()
		if err != nil {
			release()
			return nil, fmt.Errorf("join: %w", err)
		}
		if e.t != nil {
			c = &countingConn{Conn: c, t: e.t}
		}
		jl.conns = append(jl.conns, c)
	}
	return &prepared{
		verdict: func(ctx context.Context) (outcome, error) {
			res, err := cluster.Coordinate(ctx, cluster.Config{Procs: clusterRanks, Listener: jl, Obs: e.obs()})
			if err != nil {
				cancel() // the ranks may still be mid-level
			}
			var werrs []error
			for ; started > 0; started-- {
				werrs = append(werrs, <-workErr)
			}
			if err == nil {
				err = errors.Join(werrs...)
			}
			var sum int64
			for _, n := range res.PerRank {
				sum += n
			}
			c := counts{"states": res.States, "depth": res.Depth, "deadlocks": deadlocks.Load(), "per_rank_sum": sum}
			return outcome{counts: c, states: res.States, cluster: &res}, err
		},
		release: release,
	}, nil
}

// prepareLamport: one-step induction of the bounded Lamport mutex
// invariant over its complete TypeOK domain. Its smallest instance,
// (n=2, M=2, C=1), is the one benchmarked; tests run it too.
func prepareLamport(e *env) (*prepared, error) {
	sys, err := bench.InductLamport(2, 2, 1)
	if err != nil {
		return nil, err
	}
	cd, ok := sys.Dom.(containerDomain)
	if !ok {
		return nil, errors.New("lamport domain has no Contains")
	}
	a, dom, inv := e.automaton(sys.Auto), domain.Domain(cd), sys.Inv
	if e.t != nil {
		dom, inv = e.t.domain(cd), e.t.conj(inv)
	}
	return &prepared{
		verdict: func(ctx context.Context) (outcome, error) {
			cert, err := induct.Check(ctx, a, dom, inv, induct.Options{})
			c := counts{
				"inductive":        b2i(cert.Inductive),
				"adequacy_checked": b2i(cert.AdequacyChecked),
				"domain_states":    cert.DomainStates,
				"candidates":       cert.Candidates,
				"transitions":      cert.Transitions,
			}
			return outcome{counts: c, states: cert.DomainStates}, err
		},
		release: noRelease,
	}, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
