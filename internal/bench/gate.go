package bench

// The bench-trajectory regression gate (arbiterbench -bench-gate):
// the committed BENCH_*.json files are not documentation, they are an
// enforced observability signal. The gate re-runs the cheap sweeps
// (obs, explore) with the same canonical configurations the committed
// files were produced with and compares row by row — state counts
// must match exactly (the engines are deterministic, so any drift is
// a real behavioral change), wall times may drift only within a noise
// threshold (machines differ; order-of-magnitude regressions do not),
// and allocations per state, where recorded, may grow by at most
// allocSlack (one-worker runs allocate deterministically, so this
// catches a 2× regression that the wall threshold cannot).
// The expensive certification files (store, stabilize, induct,
// reduction) are validated structurally: they must parse, their
// verdicts must be internally consistent, and the negative controls
// must still be present. EXPERIMENTS.md E22 records the thresholds.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// GateConfig parameterizes the regression gate.
type GateConfig struct {
	// Dir is the directory holding the committed BENCH_*.json files
	// (default ".").
	Dir string
	// Threshold is the tolerated wall-clock slowdown ratio: a fresh
	// measurement regresses when fresh·Handicap > base·Threshold.
	// Default 5 — generous enough for cross-machine noise, tight
	// enough to catch an accidental O(n²) on the hot path.
	Threshold float64
	// Handicap multiplies fresh wall times before the comparison.
	// 1 (the default) for real gating; large values are the CI
	// negative arm, proving the gate can fail.
	Handicap float64
	// Reps is the fresh sweeps' repetition count (default 1: the
	// committed numbers are best-of-3, the threshold absorbs the
	// difference).
	Reps int
	// Now supplies the wall clock for the fresh sweeps (nil means
	// testseed.Now).
	Now func() time.Time
}

// A GateCheck is one verdict of the gate: a (file, row, aspect)
// triple with pass/fail and human-readable evidence.
type GateCheck struct {
	File   string `json:"file"`
	Key    string `json:"key"`
	Aspect string `json:"aspect"` // "states", "wall", "allocs", "verdict", "schema"
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// A GateResult aggregates the gate's checks.
type GateResult struct {
	Checks      []GateCheck `json:"checks"`
	Regressions int         `json:"regressions"`
}

// A TrajectoryPoint is one committed or fresh measurement in gate
// form: a row identity, an exact signal (the deterministic state
// count), a noisy signal (wall ns), and a near-deterministic one
// (allocations per state; 0 when the row records none).
type TrajectoryPoint struct {
	Key    string
	States int64
	NS     int64
	Allocs float64
}

// allocSlack is the tolerated growth of allocations per state: a
// fresh count regresses when it exceeds the committed one by more
// than 10%.
const allocSlack = 1.10

// CompareTrajectory compares fresh measurements against a committed
// baseline point by point: every baseline key must be present fresh,
// state counts must match exactly, fresh·handicap must stay within
// threshold× the committed wall time, and where the committed point
// records allocations per state the fresh count must stay within
// allocSlack of it. Extra fresh keys are ignored — the baseline
// defines the contract.
func CompareTrajectory(file string, base, fresh []TrajectoryPoint, threshold, handicap float64) []GateCheck {
	byKey := make(map[string]TrajectoryPoint, len(fresh))
	for _, p := range fresh {
		byKey[p.Key] = p
	}
	var checks []GateCheck
	for _, b := range base {
		f, ok := byKey[b.Key]
		if !ok {
			checks = append(checks, GateCheck{File: file, Key: b.Key, Aspect: "states",
				Detail: "row missing from fresh sweep"})
			continue
		}
		sc := GateCheck{File: file, Key: b.Key, Aspect: "states", OK: f.States == b.States}
		if !sc.OK {
			sc.Detail = fmt.Sprintf("states %d, committed %d — deterministic signal drifted", f.States, b.States)
		}
		checks = append(checks, sc)
		adjusted := float64(f.NS) * handicap
		wc := GateCheck{File: file, Key: b.Key, Aspect: "wall",
			OK: adjusted <= float64(b.NS)*threshold}
		if !wc.OK {
			wc.Detail = fmt.Sprintf("wall %.0fns (handicap %.0fx) exceeds committed %dns × threshold %.1f",
				adjusted, handicap, b.NS, threshold)
		} else {
			wc.Detail = fmt.Sprintf("wall %dns vs committed %dns", f.NS, b.NS)
		}
		checks = append(checks, wc)
		if b.Allocs > 0 {
			ac := GateCheck{File: file, Key: b.Key, Aspect: "allocs",
				OK:     f.Allocs <= b.Allocs*allocSlack,
				Detail: fmt.Sprintf("allocs/state %.1f vs committed %.1f", f.Allocs, b.Allocs)}
			if !ac.OK {
				ac.Detail += fmt.Sprintf(" — more than %.0f%% over", (allocSlack-1)*100)
			}
			checks = append(checks, ac)
		}
	}
	return checks
}

// obsPoints projects obs sweep rows into gate form.
func obsPoints(rows []ObsRow) []TrajectoryPoint {
	out := make([]TrajectoryPoint, len(rows))
	for i, r := range rows {
		out[i] = TrajectoryPoint{
			Key:    fmt.Sprintf("%s/%s/w%d", r.System, r.Mode, r.Workers),
			States: int64(r.States),
			NS:     r.NS,
		}
	}
	return out
}

// explorePoints projects explore sweep rows into gate form.
func explorePoints(rows []ExploreRow) []TrajectoryPoint {
	out := make([]TrajectoryPoint, len(rows))
	for i, r := range rows {
		out[i] = TrajectoryPoint{
			Key:    fmt.Sprintf("%s/%s/w%d", r.System, r.Mode, r.Workers),
			States: int64(r.States),
			NS:     r.NS,
			Allocs: r.AllocsPerState,
		}
	}
	return out
}

// readBench decodes one committed BENCH file into rows.
func readBench[T any](dir, name string) ([]T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []T
	if err := json.NewDecoder(f).Decode(&rows); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", name)
	}
	return rows, nil
}

// GateObsConfig is the canonical configuration BENCH_obs.json is
// produced with; the gate re-runs it so fresh rows align with the
// committed rows. Regenerate the file with the arbiterbench
// -sweep obs defaults, which match.
func GateObsConfig(reps int, now func() time.Time) ObsConfig {
	return ObsConfig{Users: 6, Workers: 2, Reps: reps, Now: now}
}

// GateExploreConfig is the canonical configuration BENCH_explore.json
// is produced with (the arbiterbench -sweep explore defaults).
func GateExploreConfig(reps int, now func() time.Time) ExploreConfig {
	return ExploreConfig{Users: 6, Reps: reps, Now: now}
}

// Gate runs the full bench-trajectory regression gate against the
// committed BENCH_*.json files in cfg.Dir. An error means the gate
// could not run (missing or malformed file, sweep failure); a clean
// run with regressions is a nil error and Regressions > 0.
func Gate(cfg GateConfig) (GateResult, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Handicap <= 0 {
		cfg.Handicap = 1
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	var res GateResult

	baseObs, err := readBench[ObsRow](cfg.Dir, "BENCH_obs.json")
	if err != nil {
		return res, err
	}
	freshObs, err := ObsSweep(GateObsConfig(cfg.Reps, cfg.Now))
	if err != nil {
		return res, fmt.Errorf("gate: obs sweep: %w", err)
	}
	res.Checks = append(res.Checks,
		CompareTrajectory("BENCH_obs.json", obsPoints(baseObs), obsPoints(freshObs), cfg.Threshold, cfg.Handicap)...)

	baseExplore, err := readBench[ExploreRow](cfg.Dir, "BENCH_explore.json")
	if err != nil {
		return res, err
	}
	freshExplore, err := ExploreSweep(GateExploreConfig(cfg.Reps, cfg.Now))
	if err != nil {
		return res, fmt.Errorf("gate: explore sweep: %w", err)
	}
	res.Checks = append(res.Checks,
		CompareTrajectory("BENCH_explore.json", explorePoints(baseExplore), explorePoints(freshExplore), cfg.Threshold, cfg.Handicap)...)

	structural, err := ValidateTrajectories(cfg.Dir)
	if err != nil {
		return res, err
	}
	res.Checks = append(res.Checks, structural...)

	for _, c := range res.Checks {
		if !c.OK {
			res.Regressions++
		}
	}
	return res, nil
}

// ValidateTrajectories runs the structural half of the gate: the
// certification BENCH files are too expensive to re-run per push, but
// they must parse, their verdicts must be internally consistent, and
// the negative controls that prove the certifiers can reject must
// still be present.
func ValidateTrajectories(dir string) ([]GateCheck, error) {
	var checks []GateCheck

	storeRows, err := readBench[StoreRow](dir, "BENCH_store.json")
	if err != nil {
		return nil, err
	}
	perSystem := make(map[string]int)
	for _, r := range storeRows {
		key := fmt.Sprintf("%s/%s/w%d", r.System, r.Mode, r.Workers)
		c := GateCheck{File: "BENCH_store.json", Key: key, Aspect: "verdict", OK: r.States > 0 && r.NS > 0}
		if !c.OK {
			c.Detail = "empty measurement"
		}
		if prev, seen := perSystem[r.System]; seen && prev != r.States {
			c.OK = false
			c.Detail = fmt.Sprintf("states %d disagree with same-system rows (%d) — determinism contract broken", r.States, prev)
		}
		perSystem[r.System] = r.States
		checks = append(checks, c)
	}

	stabRows, err := readBench[StabilizeRow](dir, "BENCH_stabilize.json")
	if err != nil {
		return nil, err
	}
	negatives := 0
	for _, r := range stabRows {
		key := fmt.Sprintf("%s/n%d/%s", r.System, r.N, r.Envelope)
		c := GateCheck{File: "BENCH_stabilize.json", Key: key, Aspect: "verdict",
			OK: r.Stabilizing == (r.Closed && r.Converges)}
		if !c.OK {
			c.Detail = fmt.Sprintf("stabilizing=%t inconsistent with closed=%t && converges=%t",
				r.Stabilizing, r.Closed, r.Converges)
		}
		if !r.Stabilizing {
			negatives++
		}
		checks = append(checks, c)
	}
	nc := GateCheck{File: "BENCH_stabilize.json", Key: "(sweep)", Aspect: "verdict", OK: negatives > 0}
	if !nc.OK {
		nc.Detail = "no negative-control row: every system certified stabilizing"
	}
	checks = append(checks, nc)

	inductRows, err := readBench[InductRow](dir, "BENCH_induct.json")
	if err != nil {
		return nil, err
	}
	for _, r := range inductRows {
		key := fmt.Sprintf("%s/%s", r.System, r.Domain)
		c := GateCheck{File: "BENCH_induct.json", Key: key, Aspect: "verdict",
			OK: r.Inductive && r.Conjuncts > 0 && r.DomainStates >= r.Candidates && r.Candidates > 0}
		if !c.OK {
			c.Detail = fmt.Sprintf("inductive=%t conjuncts=%d domain=%d candidates=%d",
				r.Inductive, r.Conjuncts, r.DomainStates, r.Candidates)
		}
		checks = append(checks, c)
	}

	reductionRows, err := readBench[ReductionRow](dir, "BENCH_reduction.json")
	if err != nil {
		return nil, err
	}
	for _, r := range reductionRows {
		key := fmt.Sprintf("%s/u%d/%s", r.System, r.Users, r.Mode)
		c := GateCheck{File: "BENCH_reduction.json", Key: key, Aspect: "verdict",
			OK: r.MutexOK && r.StateRatio >= 1}
		if !c.OK {
			c.Detail = fmt.Sprintf("mutex_ok=%t state_ratio=%.2f", r.MutexOK, r.StateRatio)
		}
		checks = append(checks, c)
	}
	return checks, nil
}

// PrintGate renders the gate result: failing checks in full, passing
// checks as a per-file tally.
func PrintGate(w io.Writer, res GateResult) {
	title := fmt.Sprintf("Bench-trajectory gate: %d checks, %d regressions", len(res.Checks), res.Regressions)
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	passed := make(map[string]int)
	for _, c := range res.Checks {
		if c.OK {
			passed[c.File]++
			continue
		}
		fmt.Fprintf(w, "FAIL %-22s %-28s %-8s %s\n", c.File, c.Key, c.Aspect, c.Detail)
	}
	for _, file := range []string{"BENCH_obs.json", "BENCH_explore.json", "BENCH_store.json",
		"BENCH_stabilize.json", "BENCH_induct.json", "BENCH_reduction.json"} {
		if n := passed[file]; n > 0 {
			fmt.Fprintf(w, "ok   %-22s %d checks\n", file, n)
		}
	}
	fmt.Fprintln(w)
}
