// Command lakectl inspects a simulated lake the way an operator would:
// it builds a CAB-style lake, then serves subcommands:
//
//	lakectl [flags] overview   table listings, file-size histograms,
//	                           quotas, and a decide-phase dry run (default)
//	lakectl [flags] metadata   per-table metadata-object counts/bytes and
//	                           checkpoint status (the maintenance view)
//
// and the policy-plane commands, which need no lake:
//
//	lakectl policy validate <spec.json>...   parse, resolve every
//	                           component, and check parameters/weights
//	lakectl policy show <spec.json>          operator summary + resolved JSON
//	lakectl policy diff <a.json> <b.json>    field-wise spec comparison
//
// and the scenario-engine commands (internal/scenario), which build
// their own fleet:
//
//	lakectl scenario list [dir]              enumerate scenarios (default
//	                           examples/scenarios)
//	lakectl scenario validate <s.json>...    schema-check scenario files
//	lakectl scenario run <s.json>            run and print the canonical
//	                           trace (byte-stable per scenario+seed)
//	lakectl scenario diff <a> <b>            compare two traces; each arg
//	                           is a scenario .json (run now) or a saved
//	                           .trace file (e.g. a committed golden)
//
// and the closed-loop tuning command (internal/autotune):
//
//	lakectl tune <space.json> <scenario.json>...
//	                           search the spec space against the scenario
//	                           engine; print the winner + provenance
//	lakectl tune -check <trials.jsonl>
//	                           schema-check a tune's JSONL trial log
//
// and the durable-storage command (internal/lstlog):
//
//	lakectl inspect <table-dir>              replay a persisted table's
//	                           commit log and print the recovered state
//
// and the daemon-operations command:
//
//	lakectl status <host:port>               scrape /statusz from a
//	                           running autocompd (-listen) and render the
//	                           daemon's progress + recent decision trace
//
// The dry runs compile their pipelines from policy specs (the same
// declarative plane autocompd runs), bound to the catalog substrate —
// so per-table policies installed in the control plane layer on top of
// the spec's own defaults.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"autocomp/internal/bench"
	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
	"autocomp/internal/storage"
	"autocomp/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	databases := flag.Int("databases", 4, "databases to create")
	top := flag.Int("top", 15, "rows to show per listing")
	persist := flag.String("persist", "", "build the lake on the durable commit-log backend rooted here (the directories `lakectl inspect` reads)")
	flag.IntVar(&decideShards, "decide-shards", 0,
		"run the dry-run decide phase sharded across N table-hash shards (byte-identical output; <=1 = serial)")
	flag.IntVar(&decideWorkers, "decide-workers", 0,
		"goroutines working decide shards (0 = min(decide-shards, GOMAXPROCS))")
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "overview"
	}

	if cmd == "policy" {
		policyCmd(flag.Args()[1:])
		return
	}
	if cmd == "scenario" {
		scenarioCmd(flag.Args()[1:])
		return
	}
	if cmd == "status" {
		statusCmd(flag.Args()[1:])
		return
	}
	if cmd == "tenants" {
		tenantsCmd(flag.Args()[1:])
		return
	}
	if cmd == "runs" {
		runsCmd(flag.Args()[1:])
		return
	}
	if cmd == "tune" {
		tuneCmd(flag.Args()[1:])
		return
	}
	if cmd == "inspect" {
		inspectCmd(flag.Args()[1:])
		return
	}

	env := buildLake(*seed, *databases, *persist)
	switch cmd {
	case "overview":
		overview(env, *top)
	case "metadata":
		metadataView(env, *top)
	default:
		log.Fatalf("lakectl: unknown command %q (have: overview, metadata, policy, scenario, status, tenants, runs, tune, inspect)", cmd)
	}
}

// scenarioCmd serves the scenario-engine subcommands.
func scenarioCmd(args []string) {
	if len(args) == 0 {
		log.Fatal("lakectl scenario: need a subcommand (list, validate, run, diff)")
	}
	switch args[0] {
	case "list":
		dir := filepath.Join("examples", "scenarios")
		if len(args) > 1 {
			dir = args[1]
		}
		specs, err := scenario.LoadDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		var rows [][]string
		for _, s := range specs {
			rows = append(rows, []string{
				s.Name, fmt.Sprintf("%d", s.Seed), fmt.Sprintf("%d", s.Days),
				fmt.Sprintf("%d", s.Fleet.InitialTables), s.Description,
			})
		}
		fmt.Println(metrics.RenderTable([]string{"Scenario", "Seed", "Days", "Tables", "Description"}, rows))
	case "validate":
		if len(args) < 2 {
			log.Fatal("lakectl scenario validate: need at least one scenario file")
		}
		failed := false
		for _, path := range args[1:] {
			spec, err := scenario.LoadFile(path)
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				failed = true
				fmt.Printf("%s: INVALID\n  %v\n", path, err)
				continue
			}
			fmt.Printf("%s: OK (%s, %d days)\n", path, spec.Name, spec.Days)
		}
		if failed {
			os.Exit(1)
		}
	case "run":
		if len(args) != 2 {
			log.Fatal("lakectl scenario run: need exactly one scenario file")
		}
		tr, err := runScenarioArg(args[1])
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(tr)
	case "diff":
		if len(args) != 3 {
			log.Fatal("lakectl scenario diff: need exactly two arguments (scenario .json or saved .trace)")
		}
		a, err := traceOf(args[1])
		if err != nil {
			log.Fatal(err)
		}
		b, err := traceOf(args[2])
		if err != nil {
			log.Fatal(err)
		}
		lines := scenario.DiffTraces(a, b)
		if len(lines) == 0 {
			fmt.Println("traces are identical")
			return
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		os.Exit(1)
	default:
		log.Fatalf("lakectl scenario: unknown subcommand %q (have: list, validate, run, diff)", args[0])
	}
}

// runScenarioArg runs a scenario file and returns its canonical trace.
func runScenarioArg(path string) ([]byte, error) {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := scenario.Run(spec)
	if err != nil {
		return nil, err
	}
	return tr.Marshal(), nil
}

// traceOf resolves a diff argument: scenario files (.json) run now,
// anything else is read as a saved trace.
func traceOf(path string) ([]byte, error) {
	if strings.HasSuffix(path, ".json") {
		return runScenarioArg(path)
	}
	return os.ReadFile(path)
}

// policyCmd serves the policy-plane subcommands. show works locally
// (one spec file) and remotely (host:port + tenant); push is always
// remote.
func policyCmd(args []string) {
	if len(args) == 0 {
		log.Fatal("lakectl policy: need a subcommand (validate, show, diff, push)")
	}
	env := policy.StubEnv()
	switch args[0] {
	case "push":
		if len(args) != 4 {
			log.Fatal("lakectl policy push: need <host:port> <tenant> <spec.json>")
		}
		remotePolicyPush(args[1], args[2], args[3])
		return
	case "validate":
		if len(args) < 2 {
			log.Fatal("lakectl policy validate: need at least one spec file")
		}
		failed := false
		for _, path := range args[1:] {
			spec, err := policy.LoadFile(path)
			if err == nil {
				err = policy.Validate(spec, env)
			}
			if err != nil {
				failed = true
				fmt.Printf("%s: INVALID\n  %v\n", path, err)
				continue
			}
			name := spec.Name
			if name == "" {
				name = "(unnamed)"
			}
			fmt.Printf("%s: OK (%s)\n", path, name)
		}
		if failed {
			os.Exit(1)
		}
	case "show":
		if len(args) == 3 {
			remotePolicyShow(args[1], args[2])
			return
		}
		if len(args) != 2 {
			log.Fatal("lakectl policy show: need one spec file, or <host:port> <tenant>")
		}
		spec, err := policy.LoadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		if err := policy.Validate(spec, env); err != nil {
			log.Fatal(err)
		}
		fmt.Print(policy.Describe(spec))
		b, err := spec.Marshal()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s", b)
	case "diff":
		if len(args) != 3 {
			log.Fatal("lakectl policy diff: need exactly two spec files")
		}
		a, err := policy.LoadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		b, err := policy.LoadFile(args[2])
		if err != nil {
			log.Fatal(err)
		}
		lines := policy.Diff(a, b)
		if len(lines) == 0 {
			fmt.Println("specs are identical")
			return
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	default:
		log.Fatalf("lakectl policy: unknown subcommand %q (have: validate, show, diff, push)", args[0])
	}
}

// buildLake loads a CAB-style lake into a fresh environment. With a
// persist root, the catalog attaches the durable commit-log backend
// first, so every table built here leaves a real _delta_log directory
// for `lakectl inspect` (and a _catalog.json for catalog.Restore).
func buildLake(seed int64, databases int, persistRoot string) *bench.Env {
	env := bench.NewEnv(bench.EnvConfig{Seed: seed})
	if persistRoot != "" {
		store, err := lstlog.Open(lstlog.Config{Root: persistRoot})
		if err != nil {
			log.Fatal(err)
		}
		if err := env.CP.AttachLog(store); err != nil {
			log.Fatal(err)
		}
	}
	gen := workload.NewCAB(workload.CABConfig{
		RawDataBytes: 20 * storage.GB,
		Databases:    databases,
		Duration:     time.Hour,
		Months:       12,
		Seed:         seed,
	})
	plan := gen.Plan()
	months := workload.MonthPartitions(12)
	for _, dbp := range plan.Databases {
		if _, err := env.CP.CreateDatabase(dbp.Name, "tenant", 200_000); err != nil {
			log.Fatal(err)
		}
		for _, td := range dbp.Tables {
			tbl, err := env.CP.CreateTable(dbp.Name, lst.TableConfig{
				Name: td.Name, Schema: td.Schema, Spec: td.Spec,
			})
			if err != nil {
				log.Fatal(err)
			}
			q := engine.Query{
				App: "load", Table: tbl, Kind: engine.Insert,
				Bytes:       workload.SizeOfShare(dbp.RawBytes, td.ShareOfData),
				Parallelism: dbp.LoadParallelism,
			}
			if td.Spec.IsPartitioned() {
				q.TargetPartitions = months
			}
			if res := env.Engine.Exec(q); res.Failed() {
				log.Fatal(res.Err)
			}
		}
	}
	// Post-load activity: two weeks of small daily appends per table —
	// the paper's cause (i), and with it the per-commit metadata of
	// cause (iv).
	for d := 0; d < 14; d++ {
		for _, tbl := range env.CP.AllTables() {
			part := ""
			if tbl.Spec().IsPartitioned() {
				part = months[len(months)-1]
			}
			specs := []lst.FileSpec{
				{Partition: part, SizeBytes: 8 * storage.MB, RowCount: 10_000},
				{Partition: part, SizeBytes: 12 * storage.MB, RowCount: 15_000},
				{Partition: part, SizeBytes: 6 * storage.MB, RowCount: 8_000},
			}
			if _, err := tbl.AppendFiles(specs); err != nil {
				log.Fatal(err)
			}
		}
		env.Clock.Advance(24 * time.Hour)
	}
	env.Clock.Advance(48 * time.Hour)
	return env
}

// overview prints the operator's lake summary plus a decide-phase dry
// run.
func overview(env *bench.Env, top int) {
	// Table listing.
	fmt.Println("== tables ==")
	var rows [][]string
	for i, tbl := range env.CP.AllTables() {
		if i >= top {
			break
		}
		rows = append(rows, []string{
			tbl.FullName(),
			fmt.Sprintf("%d", tbl.FileCount()),
			metrics.FormatBytes(tbl.TotalBytes()),
			fmt.Sprintf("%d", tbl.SmallFileCount(512*storage.MB)),
			fmt.Sprintf("%d", len(tbl.Partitions())),
			tbl.Mode().String(),
		})
	}
	fmt.Println(metrics.RenderTable(
		[]string{"Table", "Files", "Bytes", "Small", "Parts", "Mode"}, rows))

	// Lake-wide histogram.
	fmt.Println("== file size distribution ==")
	h := metrics.NewHistogram([]int64{32 * storage.MB, 128 * storage.MB, 512 * storage.MB})
	h.AddCounts(env.FS.SizeHistogram("", []int64{32 * storage.MB, 128 * storage.MB, 512 * storage.MB}))
	labels := h.BucketLabels(metrics.FormatBytes)
	var hrows [][]string
	for i, l := range labels {
		hrows = append(hrows, []string{l, fmt.Sprintf("%d", h.Counts[i])})
	}
	fmt.Println(metrics.RenderTable([]string{"Bucket", "Objects"}, hrows))

	// Quotas.
	fmt.Println("== namespace quotas ==")
	var qrows [][]string
	for _, db := range env.CP.Databases() {
		qrows = append(qrows, []string{db, fmt.Sprintf("%.1f%%", 100*env.CP.QuotaUtilization(db))})
	}
	fmt.Println(metrics.RenderTable([]string{"Database", "Quota used"}, qrows))

	// Dry-run of the decide phase, compiled from a policy spec.
	fmt.Println("== autocomp dry run (top candidates) ==")
	spec := &policy.Spec{
		Name:         "lakectl-overview",
		Generators:   []policy.Component{policy.C("hybrid-scope")},
		StatsFilters: []policy.Component{{Name: "min-small-files", Params: map[string]any{"min": float64(2)}}},
		Traits:       []policy.Component{policy.C("file_count_reduction"), policy.C("compute_cost_gbhr")},
		Objectives: []policy.ObjectiveSpec{
			{Trait: policy.C("file_count_reduction"), Weight: 0.7},
			{Trait: policy.C("compute_cost_gbhr"), Weight: 0.3},
		},
		Selector: topKSelector(top),
	}
	d := dryRun(env, spec)
	fmt.Println(d.Explain(top))
}

// metadataView prints the maintenance subsystem's view of the lake:
// per-table metadata-object counts/bytes and checkpoint status, then a
// dry run of the unified maintenance pipeline under an aggressive demo
// policy.
func metadataView(env *bench.Env, top int) {
	fmt.Println("== table metadata ==")
	var rows [][]string
	var totObjects int
	var totBytes int64
	tables := env.CP.AllTables()
	for i, tbl := range tables {
		ms := tbl.MetadataStats()
		totObjects += ms.Objects
		totBytes += ms.Bytes
		if i >= top {
			continue
		}
		ckpt := "never"
		if ms.LastCheckpointVersion >= 0 {
			ckpt = fmt.Sprintf("v%d", ms.LastCheckpointVersion)
		}
		rows = append(rows, []string{
			tbl.FullName(),
			fmt.Sprintf("%d", ms.Objects),
			metrics.FormatBytes(ms.Bytes),
			fmt.Sprintf("%d", ms.MetadataJSONs),
			fmt.Sprintf("%d", ms.Manifests),
			fmt.Sprintf("%d", ms.Snapshots),
			ckpt,
			fmt.Sprintf("%d", ms.VersionsSinceCheckpoint),
		})
	}
	fmt.Println(metrics.RenderTable(
		[]string{"Table", "Objs", "Bytes", "meta.json", "Manifests", "Snaps", "Ckpt", "Since"}, rows))
	lakeObjects := env.FS.ObjectCount()
	fmt.Printf("lake: %d metadata objects (%s) of %d storage objects (%.1f%% of the namespace)\n\n",
		totObjects, metrics.FormatBytes(totBytes), lakeObjects,
		100*float64(totObjects)/float64(lakeObjects))

	// Install an aggressive demo policy in the catalog — the control
	// plane's stored policies are the top override layer, so the spec's
	// own defaults are superseded where the catalog sets a field.
	for _, db := range env.CP.Databases() {
		dbTables, err := env.CP.Tables(db)
		if err != nil {
			log.Fatal(err)
		}
		for _, tbl := range dbTables {
			pol := catalog.TablePolicies{RetainSnapshots: 10, CheckpointEveryVersions: 10}
			if err := env.CP.SetPolicies(db, tbl.Name(), pol); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Println("== unified maintenance dry run (demo policy: retain 10, checkpoint every 10) ==")
	spec := &policy.Spec{
		Name: "lakectl-metadata",
		StatsFilters: []policy.Component{
			{Name: "min-metadata-reduction", Params: map[string]any{"min": float64(1)}},
		},
		Traits: []policy.Component{
			policy.C("file_count_reduction"), policy.C("metadata_reduction"), policy.C("compute_cost_gbhr"),
		},
		Objectives: []policy.ObjectiveSpec{
			{Trait: policy.C("file_count_reduction"), Weight: 0.5},
			{Trait: policy.C("metadata_reduction"), Weight: 0.2},
			{Trait: policy.C("compute_cost_gbhr"), Weight: 0.3},
		},
		Selector:    topKSelector(top),
		Maintenance: &policy.MaintenanceSpec{RetainSnapshots: 10, CheckpointEveryVersions: 10, MinManifestSurplus: 4},
	}
	d := dryRun(env, spec)
	fmt.Println(d.Explain(top))
}

// topKSelector returns a top-k selector component, or nil (compile
// default: select-all) when top is not positive — matching the old
// core.TopK{K: 0} select-all behavior for `-top 0`.
func topKSelector(top int) *policy.Component {
	if top < 1 {
		return nil
	}
	return policy.TopKSelector(top)
}

// decideShards and decideWorkers shard the dry-run decide phase when
// set (-decide-shards/-decide-workers) — same bytes out, parallel in.
var decideShards, decideWorkers int

// dryRun compiles a spec against the catalog substrate and runs the
// decide phase only.
func dryRun(env *bench.Env, spec *policy.Spec) *core.Decision {
	if decideShards > 1 {
		// The decide knobs live on the execution section; a decide-only
		// dry run never schedules jobs, so one worker slot satisfies the
		// section's validation without changing what runs.
		spec.Execution = &policy.ExecutionSpec{
			Workers:       1,
			DecideShards:  decideShards,
			DecideWorkers: decideWorkers,
		}
	}
	_, svc, _, err := policy.CatalogService(spec, env.PolicyEnv(), env.CP, nil)
	if err != nil {
		log.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		log.Fatal(err)
	}
	return d
}
