package main

// Layer-boundary wrappers for the traced run. Each wrapper sits on one
// public interface the engines consume — ioa.Automaton+ioa.Stepper,
// invariant predicates and lattice lemmas, domain.Domain, and the
// coordinator's net.Listener — and counts the calls crossing it and
// the wall time spent inside. Untraced runs use none of them.
//
// Counters are atomics because the parallel engine and the cluster
// ranks call the wrappers from several goroutines at once.

import (
	"context"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/testseed"
)

// tally accumulates one traced rep's layer counts and times (ns).
type tally struct {
	enabledCalls, enabledNS atomic.Int64
	stepCalls, stepNS       atomic.Int64 // VisitNext, admit time included
	successors, admitNS     atomic.Int64 // yield calls and time inside them

	predCalls, predNS atomic.Int64

	visitNS, callbackNS   atomic.Int64 // domain.Visit total and time in its callback
	domainStates          atomic.Int64
	containsCalls, contNS atomic.Int64

	spillRuns, spillBytes atomic.Int64

	readBytes, writeBytes atomic.Int64
	connWrites, writeNS   atomic.Int64

	obs         *obs.Obs // the engines' own gauges
	frontierMax atomic.Int64
}

// tracedAutomaton decorates an automaton. It implements ioa.Stepper
// whether or not the inner automaton does, so the engines keep taking
// the VisitNext path (ioa.VisitNext falls back to Next for plain
// automata, exactly as it would without the wrapper).
type tracedAutomaton struct {
	ioa.Automaton
	t *tally
}

func (w *tracedAutomaton) Enabled(s ioa.State) []ioa.Action {
	start := testseed.Now()
	acts := w.Automaton.Enabled(s)
	w.t.enabledNS.Add(int64(time.Since(start)))
	w.t.enabledCalls.Add(1)
	return acts
}

func (w *tracedAutomaton) VisitNext(s ioa.State, act ioa.Action, yield func(ioa.State) bool) bool {
	var admit int64
	start := testseed.Now()
	ok := ioa.VisitNext(w.Automaton, s, act, func(nxt ioa.State) bool {
		t0 := testseed.Now()
		more := yield(nxt)
		admit += int64(time.Since(t0))
		w.t.successors.Add(1)
		return more
	})
	w.t.stepNS.Add(int64(time.Since(start)))
	w.t.admitNS.Add(admit)
	w.t.stepCalls.Add(1)
	return ok
}

var _ ioa.Stepper = (*tracedAutomaton)(nil)

// tracedPred times an invariant predicate handed to an engine.
func (t *tally) pred(p func(ioa.State) bool) func(ioa.State) bool {
	return func(s ioa.State) bool {
		start := testseed.Now()
		ok := p(s)
		t.predNS.Add(int64(time.Since(start)))
		t.predCalls.Add(1)
		return ok
	}
}

// conj rebuilds a conjunction with every lemma's Pred timed; names and
// order are kept, so certificates and CTIs read the same.
func (t *tally) conj(c *lattice.Conjunction) *lattice.Conjunction {
	lemmas := c.Lemmas()
	for i := range lemmas {
		lemmas[i].Pred = t.pred(lemmas[i].Pred)
	}
	return lattice.Conj(c.Name(), lemmas...)
}

// containerDomain is a domain that answers membership, as induction
// needs to discharge adequacy mechanically.
type containerDomain interface {
	domain.Domain
	domain.Container
}

// tracedDomain times Visit and the engine's callback inside it, and
// Contains.
type tracedDomain struct {
	containerDomain
	t *tally
}

func (t *tally) domain(d containerDomain) *tracedDomain { return &tracedDomain{d, t} }

func (d *tracedDomain) Visit(ctx context.Context, visit func(ioa.State) error) error {
	var inside int64
	start := testseed.Now()
	err := d.containerDomain.Visit(ctx, func(s ioa.State) error {
		t0 := testseed.Now()
		e := visit(s)
		inside += int64(time.Since(t0))
		d.t.domainStates.Add(1)
		return e
	})
	d.t.visitNS.Add(int64(time.Since(start)))
	d.t.callbackNS.Add(inside)
	return err
}

func (d *tracedDomain) Contains(s ioa.State) bool {
	start := testseed.Now()
	ok := d.containerDomain.Contains(s)
	d.t.contNS.Add(int64(time.Since(start)))
	d.t.containsCalls.Add(1)
	return ok
}

// afterFlush is the SpillOptions.AfterFlush hook: it counts each run
// file the store writes and its size on disk.
func (t *tally) afterFlush(path string) {
	t.spillRuns.Add(1)
	if fi, err := os.Stat(path); err == nil {
		t.spillBytes.Add(fi.Size())
	}
}

// countingConn counts the bytes crossing one coordinator connection
// and the time its writes block.
type countingConn struct {
	net.Conn
	t *tally
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := testseed.Now()
	n, err := c.Conn.Write(p)
	c.t.writeNS.Add(int64(time.Since(start)))
	c.t.connWrites.Add(1)
	c.t.writeBytes.Add(int64(n))
	return n, err
}
