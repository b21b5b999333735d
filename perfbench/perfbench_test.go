package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/domain"
	"repro/internal/grid"
	"repro/internal/induct"
	"repro/internal/ioa"
)

// TestSmokeTiny runs every workload at the tiny size, untraced and
// traced, and checks the oracle, the traced-equals-untraced rule and
// that every metric is reported.
func TestSmokeTiny(t *testing.T) {
	for _, w := range workloads(tinySize) {
		t.Run(w.name, func(t *testing.T) {
			plain := runRep(w, false, t.TempDir(), time.Minute)
			traced := runRep(w, true, t.TempDir(), time.Minute)
			for _, r := range []repResult{plain, traced} {
				if r.Err != "" {
					t.Fatalf("traced=%v: %s", r.Traced, r.Err)
				}
			}
			res := summarize([]repResult{plain, traced}, true)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("summary not correct: %+v", res)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			res = summarize([]repResult{plain}, false)
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, %v; want > 0", m.name, v, ok)
				}
			}
		})
	}
}

// TestOracleMustFail records a wrong expected count and checks that
// the verdict is counted as a failure, not aborted on.
func TestOracleMustFail(t *testing.T) {
	w, ok := findWorkload(tinySize, "grid-cluster")
	if !ok {
		t.Fatal("grid-cluster missing")
	}
	w.expect["states"]++
	r := runRep(w, false, t.TempDir(), time.Minute)
	if !strings.Contains(r.Err, "oracle: states") {
		t.Fatalf("wrong expected count not reported: err=%q", r.Err)
	}
	res := summarize([]repResult{r}, false)
	if res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Fatalf("summary = %+v, want one failed verdict", res)
	}
}

// TestTracedDisagreementFails: a traced verdict whose counts differ
// from the untraced one is a failure.
func TestTracedDisagreementFails(t *testing.T) {
	plain := repResult{Counts: counts{"states": 10}, E2E: map[string]float64{"verdict_s": 1}}
	traced := repResult{Traced: true, Counts: counts{"states": 11}, E2E: map[string]float64{"verdict_s": 1}}
	res := summarize([]repResult{plain, traced}, true)
	if res.Correct || res.Failed != 1 {
		t.Fatalf("summary = %+v, want the traced verdict failed", res)
	}
}

// TestTracedAutomatonSteps: the wrapper is still an ioa.Stepper and
// yields exactly the inner automaton's successors.
func TestTracedAutomatonSteps(t *testing.T) {
	g, err := grid.New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTally()
	var a ioa.Automaton = &tracedAutomaton{Automaton: g, t: tl}
	if _, ok := a.(ioa.Stepper); !ok {
		t.Fatal("traced automaton is not an ioa.Stepper")
	}
	s := g.Start()[0]
	for _, act := range a.Enabled(s) {
		var got []string
		ioa.VisitNext(a, s, act, func(n ioa.State) bool { got = append(got, n.Key()); return true })
		var want []string
		for _, n := range g.Next(s, act) {
			want = append(want, n.Key())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: successors %q, want %q", act, got, want)
		}
	}
	if tl.stepCalls.Load() == 0 || tl.successors.Load() == 0 || tl.enabledCalls.Load() != 1 {
		t.Errorf("tally not counting: steps %d successors %d enabled %d",
			tl.stepCalls.Load(), tl.successors.Load(), tl.enabledCalls.Load())
	}
}

// TestTracedDomainKeepsContains: the wrapped domain still answers
// Contains, so induction still discharges adequacy mechanically, and
// the wrapped lemmas give the same certificate.
func TestTracedDomainKeepsContains(t *testing.T) {
	sys, err := bench.InductLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cd, ok := sys.Dom.(containerDomain)
	if !ok {
		t.Fatal("lamport domain has no Contains")
	}
	tl := newTally()
	var dom domain.Domain = tl.domain(cd)
	if _, ok := dom.(domain.Container); !ok {
		t.Fatal("traced domain lost Contains")
	}
	want, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Inv, induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := induct.Check(context.Background(), &tracedAutomaton{Automaton: sys.Auto, t: tl}, dom, tl.conj(sys.Inv), induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.AdequacyChecked || !got.Inductive {
		t.Fatalf("traced certificate: %s", got)
	}
	if got.String() != want.String() {
		t.Errorf("traced certificate %q, untraced %q", got, want)
	}
	if tl.containsCalls.Load() == 0 || tl.predCalls.Load() == 0 || tl.domainStates.Load() != want.DomainStates {
		t.Errorf("tally: contains %d preds %d domain states %d (want %d)",
			tl.containsCalls.Load(), tl.predCalls.Load(), tl.domainStates.Load(), want.DomainStates)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	for _, c := range []struct {
		file []entry
		code []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark prints %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.file[i].Name != m.name || c.file[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, c.file[i].Name, c.file[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(vs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", vs, c.q, got, c.want)
		}
	}
	if got := medianOf([]float64{5}); got != 5 {
		t.Errorf("median of one value = %v", got)
	}
}
