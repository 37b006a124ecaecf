// Command perfbench is the repository's host-time benchmark. It drives
// the production entry points — tenant.New / Tenant.StepCycle for the
// serving daemon's cycle, autotune.Run for policy tuning — on named
// workloads and times every call with the host's monotonic clock. It
// never reads the simulation's virtual clock (wall_ms) or the latency
// histograms.
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) runs the same workload once untraced and once through
// a pipeline whose core.Config interfaces are wrapped by timing
// decorators, checks that both passes decide identically, and reports
// the per-layer metrics. The metric names, units and workloads are
// declared in BENCHMARK.json at the repository root.
//
// Run it from the repository root with perfbench/run.sh, which builds
// it from the checkout's sources:
//
//	bash perfbench/run.sh --workload fullscan-100k --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runEnv is one invocation's settings.
type runEnv struct {
	repo    string
	build   string
	seed    int64
	seconds float64
	trace   bool
	runDir  string
}

// scratch returns a path for a run-private file or directory under the
// build directory.
func (e *runEnv) scratch(name string) string { return filepath.Join(e.runDir, name) }

// ops counts the operations a run attempted and the failures among
// them. A failed correctness check counts as a failure too.
type ops struct {
	attempted, failed int
	errs              []string
}

// attempt records one operation's outcome; it returns false on error.
func (o *ops) attempt(err error, what string) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// fail records a failed correctness check.
func (o *ops) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *ops) merge(other ops) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.errs = append(o.errs, other.errs...)
}

// result is a run's outcome: the metrics it measured, keyed by name.
type result struct {
	ops
	metrics map[string]float64
	// lines are human-readable details printed before the metrics.
	lines []string
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 15, "run length; sets how much fixed work a run does")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repo := flag.String("root", ".", "repository checkout the benchmark reads its inputs from")
	build := flag.String("build", ".bench_build", "directory for everything a run writes")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *repo, *build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, repo, build string) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	raw, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	why := ""
	for _, w := range def.Workloads {
		if w.Name == workload {
			why = w.Why
		}
	}
	if why == "" {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists the workloads)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	absBuild, err := filepath.Abs(build)
	if err != nil {
		return err
	}
	env := &runEnv{repo: repo, build: absBuild, seed: seed, seconds: seconds, trace: trace}
	env.runDir = filepath.Join(absBuild, "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(env.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(env.runDir)

	fmt.Printf("workload %s: %s\n", workload, why)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%g trace=%v fsync=%s store_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds, trace,
		fsyncPolicy(workload), fsType(env.runDir))

	steal0, total0 := cpuStealTicks()
	var res *result
	switch {
	case workload == tuneWorkload:
		res = runTune(env)
	default:
		w, ok := findFleetWorkload(workload)
		if !ok {
			return fmt.Errorf("workload %q is listed in BENCHMARK.json but not implemented", workload)
		}
		res = runFleet(env, w)
	}
	if steal1, total1 := cpuStealTicks(); total1 > total0 {
		res.lines = append(res.lines, fmt.Sprintf("host cpu time stolen by the hypervisor during the run: %.1f%%",
			100*float64(steal1-steal0)/float64(total1-total0)))
	}
	return report(def, res, trace)
}

func findFleetWorkload(name string) (fleetWorkload, bool) {
	for _, w := range fleetWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return fleetWorkload{}, false
}

func fsyncPolicy(workload string) string {
	if w, ok := findFleetWorkload(workload); ok && w.durable {
		return "always"
	}
	return "none(in-memory)"
}

// fsType names the filesystem holding path (the store root's).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuStealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func cpuStealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// report prints every metric by name and unit, then the one-line JSON
// result: end-to-end metrics for an untraced run, per-layer metrics for
// a traced one.
func report(def benchmarkDef, res *result, trace bool) error {
	for _, l := range res.lines {
		fmt.Println(l)
	}
	defs := def.EndToEnd
	section := "end-to-end (untraced)"
	if trace {
		defs = def.PerLayer
		section = "per-layer (traced run)"
	}
	fmt.Println(section + ":")
	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s was not measured", d.Name)
			continue
		}
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	var extra []string
	for name := range res.metrics {
		if !listed(defs, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-30s %14.6g (reported only)\n", name, res.metrics[name])
	}
	fmt.Printf("operations attempted=%d failed=%d error_rate=%g\n", res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)))
	for _, e := range res.errs {
		fmt.Println("FAILED:", e)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func listed(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// writeSpans dumps a traced run's spans as JSON lines.
func writeSpans(env *runEnv, workload string, spans []Span) (string, error) {
	dir := filepath.Join(env.build, "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, env.seed))
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, []byte(sb.String()), 0o644)
}
