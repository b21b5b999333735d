package bench

import (
	"strings"
	"testing"
)

func findCheck(checks []GateCheck, key, aspect string) *GateCheck {
	for i := range checks {
		if checks[i].Key == key && checks[i].Aspect == aspect {
			return &checks[i]
		}
	}
	return nil
}

func TestCompareTrajectory(t *testing.T) {
	base := []TrajectoryPoint{
		{Key: "arbiter1/serial/w1", States: 256, NS: 1_000_000},
		{Key: "arbiter2/serial/w1", States: 7720, NS: 10_000_000},
		{Key: "arbiter3/serial/w1", States: 24976, NS: 100_000_000},
	}
	fresh := []TrajectoryPoint{
		{Key: "arbiter1/serial/w1", States: 256, NS: 2_000_000},   // 2x slower: within 5x
		{Key: "arbiter2/serial/w1", States: 7721, NS: 10_000_000}, // state drift
		// arbiter3 row missing entirely
	}
	checks := CompareTrajectory("BENCH_x.json", base, fresh, 5, 1)
	if c := findCheck(checks, "arbiter1/serial/w1", "states"); c == nil || !c.OK {
		t.Fatalf("matching states flagged: %+v", c)
	}
	if c := findCheck(checks, "arbiter1/serial/w1", "wall"); c == nil || !c.OK {
		t.Fatalf("2x wall drift inside 5x threshold flagged: %+v", c)
	}
	if c := findCheck(checks, "arbiter2/serial/w1", "states"); c == nil || c.OK {
		t.Fatalf("state drift not caught: %+v", c)
	}
	if c := findCheck(checks, "arbiter3/serial/w1", "states"); c == nil || c.OK || !strings.Contains(c.Detail, "missing") {
		t.Fatalf("missing row not caught: %+v", c)
	}
}

// TestCompareTrajectoryAllocs: allocations per state may grow by at
// most 10% over the committed count; a committed point that records
// none gets no allocation check at all.
func TestCompareTrajectoryAllocs(t *testing.T) {
	base := []TrajectoryPoint{
		{Key: "within", States: 10, NS: 1000, Allocs: 40},
		{Key: "over", States: 10, NS: 1000, Allocs: 40},
		{Key: "unrecorded", States: 10, NS: 1000},
	}
	fresh := []TrajectoryPoint{
		{Key: "within", States: 10, NS: 1000, Allocs: 43.9},
		{Key: "over", States: 10, NS: 1000, Allocs: 80},
		{Key: "unrecorded", States: 10, NS: 1000, Allocs: 500},
	}
	checks := CompareTrajectory("f", base, fresh, 5, 1)
	if c := findCheck(checks, "within", "allocs"); c == nil || !c.OK {
		t.Fatalf("allocs within 10%% flagged: %+v", c)
	}
	if c := findCheck(checks, "over", "allocs"); c == nil || c.OK {
		t.Fatalf("2x allocs regression not caught: %+v", c)
	}
	if c := findCheck(checks, "unrecorded", "allocs"); c != nil {
		t.Fatalf("allocs checked against a committed row without the field: %+v", c)
	}
}

// TestCompareTrajectoryHandicap: the CI negative arm — a handicap
// large enough must push an otherwise-identical sweep over the wall
// threshold, proving the gate can fail.
func TestCompareTrajectoryHandicap(t *testing.T) {
	base := []TrajectoryPoint{{Key: "k", States: 10, NS: 1000}}
	fresh := []TrajectoryPoint{{Key: "k", States: 10, NS: 1000}}
	if c := findCheck(CompareTrajectory("f", base, fresh, 5, 1), "k", "wall"); c == nil || !c.OK {
		t.Fatalf("identical run failed without handicap: %+v", c)
	}
	if c := findCheck(CompareTrajectory("f", base, fresh, 5, 1000), "k", "wall"); c == nil || c.OK {
		t.Fatalf("1000x handicap did not trip the wall check: %+v", c)
	}
}

// TestValidateTrajectoriesCommitted runs the structural half of the
// gate against the repository's committed BENCH files: every verdict
// must be internally consistent and the negative controls present.
func TestValidateTrajectoriesCommitted(t *testing.T) {
	checks, err := ValidateTrajectories("../..")
	if err != nil {
		t.Fatalf("ValidateTrajectories: %v", err)
	}
	if len(checks) == 0 {
		t.Fatal("no structural checks produced")
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("committed %s %s %s: %s", c.File, c.Key, c.Aspect, c.Detail)
		}
	}
}

// TestGateCommittedObsBaseline: the committed BENCH_obs.json rows must
// align with the canonical gate configuration's row keys, so a fresh
// -bench-gate sweep compares like with like.
func TestGateCommittedObsBaseline(t *testing.T) {
	rows, err := readBench[ObsRow]("../..", "BENCH_obs.json")
	if err != nil {
		t.Fatalf("readBench: %v", err)
	}
	cfg := GateObsConfig(1, nil)
	for _, r := range rows {
		if r.Workers != cfg.Workers {
			t.Errorf("committed row %s/%s measured at %d workers; gate re-runs at %d",
				r.System, r.Mode, r.Workers, cfg.Workers)
		}
	}
}
