package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/testseed"
)

// repResult is one verdict's measurements, as a child prints them.
type repResult struct {
	Traced bool `json:"traced"`
	// Err is empty iff the verdict returned cleanly within its
	// deadline and met its oracle.
	Err    string             `json:"err,omitempty"`
	Counts counts             `json:"counts"`
	E2E    map[string]float64 `json:"e2e"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// perLayer lists the traced metrics and their units.
var perLayer = []struct{ name, unit string }{
	{"ioa.enabled_calls", "count"},
	{"ioa.enabled_s", "s"},
	{"ioa.step_calls", "count"},
	{"ioa.successors", "count"},
	{"ioa.step_self_s", "s"},
	{"explore.admit_calls", "count"},
	{"explore.admit_frac", "frac"},
	{"explore.levels", "count"},
	{"explore.frontier_max", "count"},
	{"explore.self_frac", "frac"},
	{"store.dup_frac", "frac"},
	{"store.arena_bytes_per_state", "B"},
	{"store.spill_runs", "count"},
	{"store.spilled_bytes_per_state", "B"},
	{"cluster.barrier_wait_frac", "frac"},
	{"cluster.rank_imbalance", "ratio"},
	{"cluster.wire_bytes_per_state", "B"},
	{"cluster.conn_writes", "count"},
	{"cluster.write_block_frac", "frac"},
	{"domain.states", "count"},
	{"domain.visit_self_frac", "frac"},
	{"domain.contains_calls", "count"},
	{"domain.contains_frac", "frac"},
	{"lattice.pred_calls", "count"},
	{"lattice.pred_frac", "frac"},
	{"induct.candidates", "count"},
	{"induct.transitions", "count"},
	{"gc.cpu_frac", "frac"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// sample is the process-wide resource reading taken either side of a
// verdict.
type sample struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := sample{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    ms.PauseTotalNs,
		gcCycles:   uint64(ms.NumGC),
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.at = testseed.Now()
	return s
}

// peakRSSMB is this process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// newTally builds a traced rep's tally with an Obs whose progress sink
// keeps the widest frontier any engine reports.
func newTally() *tally {
	t := &tally{obs: obs.New(nil)}
	t.obs.Progress = func(p obs.Progress) {
		for {
			cur := t.frontierMax.Load()
			if p.Frontier <= cur || t.frontierMax.CompareAndSwap(cur, p.Frontier) {
				return
			}
		}
	}
	return t
}

// setupReps is how many times a rep sets its workload up.
const setupReps = 5

// runRep sets up w, runs its verdict once under timeout, checks the
// oracle and measures. It is what a child process runs.
func runRep(w workload, traced bool, dir string, timeout time.Duration) repResult {
	res := repResult{Traced: traced, E2E: map[string]float64{}}
	e := &env{dir: dir}
	if traced {
		e.t = newTally()
	}
	// Set up setupReps times and keep the last; setup_s is the median.
	// The discarded set-ups never ran a verdict, so their release
	// errors (ranks cancelled before the welcome) are expected.
	var p *prepared
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			_ = p.release()
		}
		t0 := testseed.Now()
		var err error
		p, err = w.prepare(e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			res.Err = fmt.Sprintf("setup: %v", err)
			return res
		}
	}
	res.E2E["setup_s"] = medianOf(setups)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	before := takeSample()
	out, err := p.verdict(ctx)
	after := takeSample()
	if rerr := p.release(); err == nil && rerr != nil {
		err = fmt.Errorf("release: %w", rerr)
	}
	res.Counts = out.counts
	switch {
	case err != nil:
		res.Err = fmt.Sprintf("verdict: %v", err)
	default:
		if merr := w.expect.check(out.counts); merr != nil {
			res.Err = merr.Error()
		}
	}
	verdict := after.at.Sub(before.at).Seconds()
	cpu := (after.cpu - before.cpu).Seconds()
	states := float64(out.states)
	if states < 1 {
		states = 1
	}
	res.E2E["verdict_s"] = verdict
	res.E2E["states_per_s"] = float64(out.states) / verdict
	res.E2E["cpu_s"] = cpu
	res.E2E["peak_rss_mb"] = peakRSSMB()
	res.E2E["allocs_per_state"] = float64(after.mallocs-before.mallocs) / states
	res.E2E["alloc_bytes_per_state"] = float64(after.allocBytes-before.allocBytes) / states
	if traced {
		res.Layers = layers(w, e.t, out, before, after)
	}
	return res
}

// check compares a verdict's counts with the oracle's.
func (want counts) check(got counts) error {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("oracle: %s = %d, want %d", k, got[k], want[k])
		}
	}
	return nil
}

// layers turns a traced rep's tally into the per-layer metrics. Every
// metric is reported on every workload; a layer the workload does not
// run reads 0. Layer times that only some workloads have are reported
// as shares of the verdict's wall time (summed over goroutines, so a
// parallel layer can exceed 1), never as a constant zero time.
func layers(w workload, t *tally, out outcome, before, after sample) map[string]float64 {
	s := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e9 }
	n := func(c *atomic.Int64) float64 { return float64(c.Load()) }
	states := float64(out.states)
	if states < 1 {
		states = 1
	}
	wall := after.at.Sub(before.at).Seconds()
	share := func(sec float64) float64 { return sec / wall }
	cpu := (after.cpu - before.cpu).Seconds()
	m := map[string]float64{
		"ioa.enabled_calls":      n(&t.enabledCalls),
		"ioa.enabled_s":          s(&t.enabledNS),
		"ioa.step_calls":         n(&t.stepCalls),
		"ioa.successors":         n(&t.successors),
		"ioa.step_self_s":        s(&t.stepNS) - s(&t.admitNS),
		"lattice.pred_calls":     n(&t.predCalls),
		"lattice.pred_frac":      share(s(&t.predNS)),
		"domain.states":          n(&t.domainStates),
		"domain.visit_self_frac": share(s(&t.visitNS) - s(&t.callbackNS)),
		"domain.contains_calls":  n(&t.containsCalls),
		"domain.contains_frac":   share(s(&t.contNS)),
		"induct.candidates":      float64(out.counts["candidates"]),
		"induct.transitions":     float64(out.counts["transitions"]),

		"store.spill_runs":              n(&t.spillRuns),
		"store.spilled_bytes_per_state": n(&t.spillBytes) / states,
		"store.arena_bytes_per_state":   float64(t.obs.Store.ArenaBytes.Value()) / states,

		"cluster.wire_bytes_per_state": (n(&t.readBytes) + n(&t.writeBytes)) / states,
		"cluster.conn_writes":          n(&t.connWrites),
		"cluster.write_block_frac":     share(s(&t.writeNS)),

		"explore.levels":       float64(t.obs.Explore.Levels.Value() + t.obs.Dist.Levels.Value()),
		"explore.frontier_max": float64(max(t.obs.Explore.Frontier.Snapshot().Max, t.frontierMax.Load())),

		"gc.cycles":  float64(after.gcCycles - before.gcCycles),
		"gc.pause_s": float64(after.gcPause-before.gcPause) / 1e9,
	}
	if cpu > 0 {
		m["gc.cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if res := out.cluster; res != nil && res.States > 0 {
		m["cluster.barrier_wait_frac"] = share(float64(res.BarrierWaitNS) / 1e9)
		var most int64
		for _, n := range res.PerRank {
			most = max(most, n)
		}
		m["cluster.rank_imbalance"] = float64(most) / (float64(res.States) / float64(len(res.PerRank)))
	}
	// Successors feed a BFS admit path (encode, probe or intern, push)
	// on every workload but induction, where they feed the inductive
	// step's conjunct and membership checks instead.
	if w.par > 0 {
		m["explore.admit_calls"] = n(&t.successors)
		m["explore.admit_frac"] = share(s(&t.admitNS))
		if succ := n(&t.successors); succ > 0 {
			m["store.dup_frac"] = 1 - float64(out.states)/succ
		}
		// The engine's own share is the expanding goroutines' wall time
		// that no wrapped call covers: level sort and merge, spill
		// merge, barriers, and being preempted by GC. Every wrapped
		// call here is made by the engine itself, none nested in
		// another.
		inLayers := s(&t.enabledNS) + s(&t.stepNS) + s(&t.predNS) + s(&t.writeNS)
		m["explore.self_frac"] = 1 - inLayers/(wall*float64(w.par))
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
	delete(m, "trace.overhead_frac")
	return m
}
