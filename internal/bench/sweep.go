package bench

// The sweep registry: every named benchmark sweep the CLIs can run
// with `arbiterbench -sweep <name> -sweep-out <file>`. Two flags and
// one table cover every sweep, so adding a sweep touches only this
// file and never the CLI.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// A Sweep is one registered benchmark sweep.
type Sweep struct {
	// Name is the registry key (-sweep <name>).
	Name string
	// Artifact is the canonical committed JSON file the sweep's rows
	// land in (BENCH_<name>.json).
	Artifact string
	// Description is the one-line help text.
	Description string
	// Run executes the sweep: prints the human table to stdout and
	// returns the rows for JSON emission plus the row count for the
	// ledger.
	Run func(cfg SweepConfig) (rows any, n int, err error)
}

// SweepConfig carries the shared knobs every registered sweep draws
// from; zero values select each sweep's canonical defaults.
type SweepConfig struct {
	// Users is the users-per-arbiter-instance knob of the explore,
	// store, and obs sweeps.
	Users int
	// Sizes is the largest Dijkstra ring size of the stabilize sweep.
	Sizes int
	// Workers and Limit are the shared exploration knobs.
	Workers int
	Limit   int
	// Quick shrinks sweeps to smoke sizes.
	Quick bool
	// Out is the human-output writer (default os.Stdout).
	Out io.Writer
	// Now supplies the wall clock where a sweep times rows (nil means
	// testseed.Now).
	Now func() time.Time
}

func (c SweepConfig) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

// sweeps is the registry, in presentation order.
var sweeps = []Sweep{
	{
		Name: "explore", Artifact: "BENCH_explore.json",
		Description: "memo-off baseline vs the level engine at 1, 2, 4 workers on the closed arbiter levels (E15)",
		Run: func(cfg SweepConfig) (any, int, error) {
			users := cfg.Users
			if users <= 0 {
				users = 6
			}
			rows, err := ExploreSweep(ExploreConfig{Users: users, Reps: 3, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintExplore(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "store", Artifact: "BENCH_store.json",
		Description: "string-keyed reference explorer vs interned store-backed engine (E18)",
		Run: func(cfg SweepConfig) (any, int, error) {
			users := cfg.Users
			if users <= 0 {
				users = 6
			}
			var ws []int
			if cfg.Workers > 1 {
				ws = []int{cfg.Workers}
			}
			rows, err := StoreSweep(StoreConfig{Users: users, Limit: cfg.Limit, Workers: ws, Reps: 3, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintStore(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "obs", Artifact: "BENCH_obs.json",
		Description: "observability layer off vs on: overhead pricing (E17)",
		Run: func(cfg SweepConfig) (any, int, error) {
			users := cfg.Users
			if users <= 0 {
				users = 6
			}
			rows, err := ObsSweep(ObsConfig{Users: users, Workers: 2, Reps: 3, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintObs(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "stabilize", Artifact: "BENCH_stabilize.json",
		Description: "self-stabilization certification: Dijkstra rings + LeLann negative control (E19)",
		Run: func(cfg SweepConfig) (any, int, error) {
			max := cfg.Sizes
			if max <= 0 {
				max = 4
			}
			var sizes []int
			for n := 3; n <= max; n++ {
				sizes = append(sizes, n)
			}
			rows, err := StabilizeSweep(StabilizeConfig{Sizes: sizes, Workers: cfg.Workers, Limit: cfg.Limit, Reps: 3, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintStabilize(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "reduction", Artifact: "BENCH_reduction.json",
		Description: "symmetry quotient vs unreduced exploration (E20)",
		Run: func(cfg SweepConfig) (any, int, error) {
			rcfg := ReductionConfig{Workers: cfg.Workers, Limit: cfg.Limit, Now: cfg.Now}
			if cfg.Quick {
				rcfg.SpecUsers = []int{3}
				rcfg.StarUsers = []int{4}
			}
			rows, err := ReductionSweep(rcfg)
			if err != nil {
				return nil, 0, err
			}
			PrintReduction(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "induct", Artifact: "BENCH_induct.json",
		Description: "inductive-invariant certification vs full reachability (E21)",
		Run: func(cfg SweepConfig) (any, int, error) {
			rows, err := InductSweep(InductConfig{Workers: cfg.Workers, Limit: cfg.Limit, Reps: 3, Quick: cfg.Quick, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintInduct(cfg.out(), rows)
			return rows, len(rows), nil
		},
	},
	{
		Name: "dist", Artifact: "BENCH_dist.json",
		Description: "grid census by backend: in-RAM vs disk spill vs multi-process cluster (E23)",
		Run: func(cfg SweepConfig) (any, int, error) {
			rows, err := DistSweep(DistConfig{Quick: cfg.Quick, Now: cfg.Now})
			if err != nil {
				return nil, 0, err
			}
			PrintDist(cfg.out(), rows)
			return DistReport{Rows: rows}, len(rows), nil
		},
	},
}

// Sweeps returns the registry in presentation order.
func Sweeps() []Sweep { return sweeps }

// FindSweep resolves a registry name; the error of an unknown name
// lists every registered sweep.
func FindSweep(name string) (Sweep, error) {
	for _, s := range sweeps {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		names[i] = s.Name
	}
	return Sweep{}, fmt.Errorf("bench: unknown sweep %q (registered: %v)", name, names)
}

// WriteSweepJSON emits a sweep's rows as indented JSON — the one
// encoder behind every BENCH_*.json artifact.
func WriteSweepJSON(w io.Writer, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
