// Command perfbench is the repository's benchmark. It runs one named
// verification workload for a fixed time, checks every verdict against
// a known answer, and prints the workload's metrics as one JSON line.
//
//	go build -o .bench_build/perfbench ./perfbench   (from perfbench/)
//	perfbench --workload arbiter3-tree --seed 1 --seconds 20 --trace 0
//
// Each verdict runs in a fresh child process (the same binary with
// -child), so peak RSS is per verdict and no heap or cache state
// carries from one verdict to the next. With --trace 0 the children
// run the engines bare and the end-to-end metrics are reported; with
// --trace 1 untraced and traced children alternate, the per-layer
// metrics come from the traced ones, and trace.overhead_frac compares
// the two. Time metrics report the lower quartile of the run's
// verdicts, the rest the median (see lowerTail). The workloads are exhaustive
// and deterministic: --seed is recorded but changes no input. LAYERS.md
// documents the workloads, their oracles and the layer-to-metric map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/testseed"
)

// repTimeout bounds one verdict; a verdict that runs past it counts as
// failed. The parent kills a child that outlives it by killGrace.
const (
	repTimeout = 90 * time.Second
	killGrace  = 10 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 0, "recorded with the result; the workloads are deterministic and ignore it")
		seconds = flag.Float64("seconds", 10, "how long to keep starting verdicts")
		trace   = flag.Int("trace", 0, "1 to report per-layer metrics from traced verdicts")
		scratch = flag.String("scratch", ".bench_build", "directory for spill files")
		child   = flag.Bool("child", false, "run one verdict and print its result (internal)")
		commit  = flag.String("commit", "unknown", "git commit of the sources, for the provenance line")
		dirty   = flag.String("dirty", "unknown", "whether the work tree had changes, for the provenance line")
	)
	flag.Parse()
	w, ok := findWorkload(fullSize, *name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *child {
		res := runRep(w, *trace == 1, *scratch, repTimeout)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	host := hostInfo{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: *commit, Dirty: *dirty,
	}
	if err := orchestrate(w, host, *scratch); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(fullSize) {
		names = append(names, w.name)
	}
	return names
}

// orchestrate runs children until the time is up and prints the
// provenance line and the result line.
func orchestrate(w workload, host hostInfo, scratch string) error {
	seconds, traced := host.Seconds, host.Traced
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	deadline := testseed.Now().Add(time.Duration(seconds * float64(time.Second)))
	var reps []repResult
	longest := map[bool]time.Duration{}
	count := map[bool]int{}
	// Untraced and traced verdicts alternate in a traced run. A run
	// holds at least one of each kind it reports, then starts another
	// verdict only while the longest one so far still fits.
	for i := 0; ; i++ {
		kind := traced && i%2 == 1
		if count[kind] > 0 && testseed.Now().Add(longest[kind]).After(deadline) {
			break
		}
		t0 := testseed.Now()
		res := runChild(exe, w.name, kind, scratch)
		if d := time.Since(t0); d > longest[kind] {
			longest[kind] = d
		}
		count[kind]++
		reps = append(reps, res)
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d traced=%v setup=%.4fs verdict=%.4fs err=%q\n",
			w.name, i, res.Traced, res.E2E["setup_s"], res.E2E["verdict_s"], res.Err)
	}
	host.Verdicts = len(reps)
	line, err := json.Marshal(map[string]hostInfo{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(summarize(reps, traced))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one verdict in a child process and decodes its result.
// A child that crashes, hangs or prints garbage is a failed verdict.
func runChild(exe, name string, traced bool, scratch string) repResult {
	failed := repResult{Traced: traced}
	dir, err := os.MkdirTemp(scratch, "rep-")
	if err != nil {
		failed.Err = err.Error()
		return failed
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout+killGrace)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-trace", trace, "-scratch", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		failed.Err = fmt.Sprintf("child: %v", err)
		return failed
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		failed.Err = fmt.Sprintf("child output: %v", err)
		return failed
	}
	return res
}

// hostInfo is the provenance recorded with every result. run.sh reads
// the commit and dirty flag from git; they are "unknown" outside a git
// work tree.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Verdicts   int     `json:"verdicts"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      string  `json:"dirty"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"states_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_state", "count"},
	{"alloc_bytes_per_state", "B"},
}

// lowerTail names the end-to-end metrics that report a run's lower
// quartile (upper for a rate) rather than its median. Other tenants of
// a shared host only ever add time to a verdict (CPU steal, contended
// caches), and on a two-core host their load drifts from minute to
// minute; the lower quartile of a run's verdicts spreads less from run
// to run than the median, without resting on one lucky verdict as the
// minimum does. Set-up time, memory and allocation counts stay medians.
var lowerTail = map[string]func([]float64) float64{
	"verdict_s":    func(vs []float64) float64 { return quantile(vs, 0.25) },
	"cpu_s":        func(vs []float64) float64 { return quantile(vs, 0.25) },
	"states_per_s": func(vs []float64) float64 { return quantile(vs, 0.75) },
}

// summarize folds the successful reps of the kind the run reports into
// the result line. A traced rep whose oracle counts differ from an
// untraced rep's is a failure: the wrappers changed what the engine
// did.
func summarize(reps []repResult, traced bool) result {
	var plain, withTrace []repResult
	res := result{Attempted: len(reps), Metrics: map[string]metric{}}
	for _, r := range reps {
		switch {
		case r.Err != "":
			res.Failed++
		case r.Traced:
			withTrace = append(withTrace, r)
		default:
			plain = append(plain, r)
		}
	}
	if len(plain) > 0 {
		for i := range withTrace {
			if err := sameCounts(plain[0].Counts, withTrace[i].Counts); err != nil {
				res.Failed++
				withTrace[i].Err = err.Error()
				fmt.Fprintf(os.Stderr, "perfbench: traced verdict disagrees with untraced: %v\n", err)
			}
		}
	}
	withTrace = okReps(withTrace)
	res.Correct = res.Failed == 0
	// Metrics are taken over the verdicts that passed; a run with none
	// of the kind it reports prints none.
	switch {
	case !traced && len(plain) > 0:
		for _, m := range endToEnd {
			agg := medianOf
			if f, ok := lowerTail[m.name]; ok {
				agg = f
			}
			res.Metrics[m.name] = metric{agg(values(plain, func(r repResult) float64 { return r.E2E[m.name] })), m.unit}
		}
	case traced && len(plain) > 0 && len(withTrace) > 0:
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{medianOf(values(withTrace, func(r repResult) float64 { return r.Layers[m.name] })), m.unit}
		}
		verdict := func(r repResult) float64 { return r.E2E["verdict_s"] }
		res.Metrics["trace.overhead_frac"] = metric{medianOf(values(withTrace, verdict))/medianOf(values(plain, verdict)) - 1, "frac"}
	default:
		res.Correct = false
	}
	return res
}

func okReps(reps []repResult) []repResult {
	var out []repResult
	for _, r := range reps {
		if r.Err == "" {
			out = append(out, r)
		}
	}
	return out
}

func sameCounts(want, got counts) error {
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("%s: traced %d, untraced %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		return errors.New("traced and untraced verdicts report different counts")
	}
	return nil
}

func values(reps []repResult, f func(repResult) float64) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return vs
}

func medianOf(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the order statistics of vs.
func quantile(vs []float64, q float64) float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}
