// Command mecwc runs the machine-class workload checks: a declarative
// corpus of scenario/fault/budget cases under workload-checks/ that
// exercises the full mecgen → LP-HTA → discrete-event pipeline and
// gates the result on per-case budget files.
//
// Usage:
//
//	mecwc                              # every machine class
//	mecwc -class ci-smoke              # one class (the CI gate)
//	mecwc -list                        # show the corpus
//	mecwc -class ci-smoke -report wc.jsonl
//	mecwc -parallel 4                  # identical verdicts at any value
//
// A machine class is a directory workload-checks/<class>/ holding a
// machine.json (population scale + description) and cases/<case>/
// directories. Each case names its scenario source — a generator recipe
// with a seed, or a committed scenario document — plus a budgets.json
// of metric assertions (internal/workload format, shared with
// mecbench -check). Derived metrics (miss_rate, goodput,
// total_energy_joules, alloc_bytes_per_task, ...) are listed in
// docs/WORKLOAD_CHECKS.md.
//
// Stdout is byte-identical for any -parallel value: only the
// -report JSONL carries run-dependent clocks and allocation figures.
//
// Exit codes: 0 all cases pass, 1 budget violation or runtime failure,
// 2 malformed corpus or budget file (with a structured JSON record on
// stderr).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"dsmec"
	"dsmec/internal/obs"
	"dsmec/internal/recipes"
	"dsmec/internal/scenarioio"
	"dsmec/internal/texttable"
	"dsmec/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "mecwc:", err)
	var be *workload.BudgetError
	if errors.As(err, &be) {
		be.WriteJSON(os.Stderr)
		os.Exit(2)
	}
	var ce *corpusError
	if errors.As(err, &ce) {
		_ = json.NewEncoder(os.Stderr).Encode(map[string]string{
			"error":  "corpus",
			"path":   ce.Path,
			"detail": ce.Detail,
		})
		os.Exit(2)
	}
	os.Exit(1)
}

// corpusError marks a malformed corpus: a broken machine.json or
// case.json, an unknown recipe, an unreadable scenario document. main
// maps it to exit code 2 so CI can tell "fix the corpus" from "the
// system regressed".
type corpusError struct {
	Path   string
	Detail string
}

func (e *corpusError) Error() string {
	return fmt.Sprintf("corpus %s: %s", e.Path, e.Detail)
}

// machineConfig is workload-checks/<class>/machine.json: the population
// scale every case of the class inherits.
type machineConfig struct {
	Description string `json:"description"`
	Devices     int    `json:"devices"`
	Stations    int    `json:"stations"`
	Tasks       int    `json:"tasks"`
	InputKB     int    `json:"input_kb"`
}

// caseSpec is cases/<case>/case.json: the scenario source. Exactly one
// of Recipe and Scenario must be set. Size fields, when non-zero,
// override the machine class defaults.
type caseSpec struct {
	Description string `json:"description"`
	Recipe      string `json:"recipe"`
	Scenario    string `json:"scenario"`
	Seed        int64  `json:"seed"`
	FaultSeed   int64  `json:"fault_seed"`
	Devices     int    `json:"devices"`
	Stations    int    `json:"stations"`
	Tasks       int    `json:"tasks"`
	InputKB     int    `json:"input_kb"`
}

// workCase is one discovered case, budgets already validated.
type workCase struct {
	Class   string
	Name    string
	Dir     string
	Spec    caseSpec
	Budgets []workload.Budget
}

// workClass is one discovered machine class with its cases in name
// order.
type workClass struct {
	Name   string
	Config machineConfig
	Cases  []workCase
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("mecwc", flag.ContinueOnError)
	var (
		root       = fs.String("root", "workload-checks", "corpus root directory")
		class      = fs.String("class", "", "machine class to run (default: every class)")
		list       = fs.Bool("list", false, "list the corpus and exit")
		reportPath = fs.String("report", "", "write one JSON record per case (plus a summary) to this JSONL file")
		parallel   = fs.Int("parallel", 0, "LP-HTA cluster worker count (0 = GOMAXPROCS); verdicts are identical for any value")
		logLevel   = fs.String("log-level", "warn", "structured log level on stderr: debug, info, warn, error, or off")
		logFormat  = fs.String("log-format", "text", "structured log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	obs.SetGlobalLogger(logger)

	classes, err := discover(*root, *class)
	if err != nil {
		return err
	}
	if *list {
		return writeCorpusList(classes, stdout)
	}

	var report *json.Encoder
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		report = json.NewEncoder(f)
	}

	totalCases, failedCases := 0, 0
	for _, cl := range classes {
		fmt.Fprintf(stdout, "class %s — %s (%d cases)\n", cl.Name, cl.Config.Description, len(cl.Cases))
		tb := texttable.New("CASE", "SOURCE", "TASKS", "MISS%", "GOODPUT", "ENERGY(J)", "BUDGETS", "STATUS")
		type failure struct {
			caseName   string
			violations []workload.Violation
		}
		var failures []failure
		for _, c := range cl.Cases {
			res, err := runCase(c, cl.Config, *parallel)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", cl.Name, c.Name, err)
			}
			totalCases++
			status := "ok"
			if len(res.Violations) > 0 {
				failedCases++
				status = "FAIL"
				failures = append(failures, failure{c.Name, res.Violations})
			}
			tb.AddRowf(c.Name, res.Source,
				fmt.Sprintf("%d", int(res.Metrics["tasks_total"])),
				fmt.Sprintf("%.1f", 100*res.Metrics["miss_rate"]),
				fmt.Sprintf("%.3f", res.Metrics["goodput"]),
				fmt.Sprintf("%.1f", res.Metrics["total_energy_joules"]),
				fmt.Sprintf("%d", len(c.Budgets)), status)
			if report != nil {
				if err := report.Encode(res.record(cl.Name, c)); err != nil {
					return err
				}
			}
		}
		if _, err := tb.WriteTo(stdout); err != nil {
			return err
		}
		// Violation details stay deterministic: limits come from the budget
		// file; actuals (possibly clocks) live in the -report JSONL only.
		for _, f := range failures {
			for _, v := range f.violations {
				if v.Limit != nil {
					fmt.Fprintf(stdout, "FAIL %s/%s: %s %s limit %g\n", cl.Name, f.caseName, v.Budget, v.Kind, *v.Limit)
				} else {
					fmt.Fprintf(stdout, "FAIL %s/%s: %s %s\n", cl.Name, f.caseName, v.Budget, v.Kind)
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "workload checks: %d/%d cases passed across %d class(es)\n",
		totalCases-failedCases, totalCases, len(classes))
	if report != nil {
		if err := report.Encode(map[string]any{
			"summary": true, "classes": len(classes), "cases": totalCases, "failed": failedCases,
		}); err != nil {
			return err
		}
	}
	if failedCases > 0 {
		return fmt.Errorf("%d workload-check case(s) failed", failedCases)
	}
	return nil
}

// discover walks the corpus root and validates every machine class and
// case up front, so a malformed corpus fails fast with exit code 2
// before any simulation runs.
func discover(root, classFilter string) ([]workClass, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, &corpusError{Path: root, Detail: err.Error()}
	}
	var classes []workClass
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		cl, err := loadClass(dir, e.Name())
		if err != nil {
			return nil, err
		}
		classes = append(classes, *cl)
	}
	if classFilter != "" {
		for _, cl := range classes {
			if cl.Name == classFilter {
				return []workClass{cl}, nil
			}
		}
		names := make([]string, 0, len(classes))
		for _, cl := range classes {
			names = append(names, cl.Name)
		}
		return nil, fmt.Errorf("unknown machine class %q (have: %s)", classFilter, strings.Join(names, ", "))
	}
	if len(classes) == 0 {
		return nil, &corpusError{Path: root, Detail: "no machine classes found"}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].Name < classes[j].Name })
	return classes, nil
}

func loadClass(dir, name string) (*workClass, error) {
	mpath := filepath.Join(dir, "machine.json")
	data, err := os.ReadFile(mpath)
	if err != nil {
		return nil, &corpusError{Path: mpath, Detail: "every class directory needs a machine.json: " + err.Error()}
	}
	var cfg machineConfig
	if err := strictUnmarshal(data, &cfg); err != nil {
		return nil, &corpusError{Path: mpath, Detail: err.Error()}
	}
	if cfg.Devices <= 0 || cfg.Stations <= 0 || cfg.Tasks <= 0 {
		return nil, &corpusError{Path: mpath, Detail: "devices, stations, and tasks must all be positive"}
	}
	cl := &workClass{Name: name, Config: cfg}

	casesDir := filepath.Join(dir, "cases")
	entries, err := os.ReadDir(casesDir)
	if err != nil {
		return nil, &corpusError{Path: casesDir, Detail: err.Error()}
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := loadCase(filepath.Join(casesDir, e.Name()), name, e.Name())
		if err != nil {
			return nil, err
		}
		cl.Cases = append(cl.Cases, *c)
	}
	if len(cl.Cases) == 0 {
		return nil, &corpusError{Path: casesDir, Detail: "class has no cases"}
	}
	sort.Slice(cl.Cases, func(i, j int) bool { return cl.Cases[i].Name < cl.Cases[j].Name })
	return cl, nil
}

func loadCase(dir, class, name string) (*workCase, error) {
	cpath := filepath.Join(dir, "case.json")
	data, err := os.ReadFile(cpath)
	if err != nil {
		return nil, &corpusError{Path: cpath, Detail: err.Error()}
	}
	var spec caseSpec
	if err := strictUnmarshal(data, &spec); err != nil {
		return nil, &corpusError{Path: cpath, Detail: err.Error()}
	}
	switch {
	case spec.Recipe == "" && spec.Scenario == "":
		return nil, &corpusError{Path: cpath, Detail: "case needs a recipe or a scenario document"}
	case spec.Recipe != "" && spec.Scenario != "":
		return nil, &corpusError{Path: cpath, Detail: "recipe and scenario are mutually exclusive"}
	case spec.Recipe != "":
		if _, ok := recipes.ByName(spec.Recipe); !ok {
			return nil, &corpusError{Path: cpath, Detail: fmt.Sprintf("unknown recipe %q (see mecgen -list-recipes)", spec.Recipe)}
		}
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.FaultSeed == 0 {
		spec.FaultSeed = 1
	}
	budgets, err := workload.LoadBudgets(filepath.Join(dir, "budgets.json"))
	if err != nil {
		return nil, err
	}
	return &workCase{Class: class, Name: name, Dir: dir, Spec: spec, Budgets: budgets}, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so typos in
// corpus files surface as corpus errors instead of silently defaulting.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// caseResult carries everything one case run produced.
type caseResult struct {
	Source     string
	Metrics    map[string]float64
	Violations []workload.Violation
}

// record shapes the JSONL report line for one case.
func (r *caseResult) record(class string, c workCase) map[string]any {
	status := "pass"
	if len(r.Violations) > 0 {
		status = "fail"
	}
	rec := map[string]any{
		"class":   class,
		"case":    c.Name,
		"status":  status,
		"source":  r.Source,
		"seed":    c.Spec.Seed,
		"metrics": r.Metrics,
	}
	if len(r.Violations) > 0 {
		rec["violations"] = r.Violations
	}
	return rec
}

// runCase drives one case through the full pipeline: scenario (recipe
// generation or committed document) → LP-HTA → feasibility check →
// discrete-event replay with the case's fault plan → budget evaluation.
func runCase(c workCase, cfg machineConfig, parallel int) (*caseResult, error) {
	var allocBefore runtime.MemStats
	runtime.ReadMemStats(&allocBefore)

	reg := obs.NewRegistry()
	manifest := obs.NewManifest("mecwc", nil)
	manifest.SetSeed(c.Spec.Seed)
	ins := obs.Instruments{Metrics: reg}

	sc, fp, source, err := buildScenario(c, cfg)
	if err != nil {
		return nil, err
	}
	reg.Counter("mecwc.cases").Inc()
	reg.Counter("mecwc.tasks").Add(int64(sc.Tasks.Len()))

	lph, err := dsmec.LPHTA(sc.Model, sc.Tasks, &dsmec.LPHTAOptions{Obs: ins, Parallelism: parallel})
	if err != nil {
		return nil, err
	}
	if err := dsmec.CheckFeasible(sc.Model, sc.Tasks, lph.Assignment); err != nil {
		return nil, fmt.Errorf("LP-HTA produced an infeasible assignment: %w", err)
	}
	simRes, err := dsmec.Simulate(sc.Model, sc.Tasks, lph.Assignment,
		dsmec.SimConfig{Obs: ins, Faults: fp})
	if err != nil {
		return nil, err
	}

	var allocAfter runtime.MemStats
	runtime.ReadMemStats(&allocAfter)
	manifest.Finish(reg)

	metrics := deriveMetrics(sc, simRes, allocAfter.TotalAlloc-allocBefore.TotalAlloc, manifest)
	resolve := workload.ChainResolvers(
		func(name string) (float64, bool) { v, ok := metrics[name]; return v, ok },
		workload.ManifestResolver(manifest),
	)
	// Budget detail lines carry run clocks, so they go to the report
	// metrics rather than the deterministic stdout stream.
	violations := workload.CheckBudgets(c.Budgets, resolve, io.Discard)
	return &caseResult{Source: source, Metrics: metrics, Violations: violations}, nil
}

// buildScenario resolves the case's scenario source: a named recipe
// (generated at the machine-class scale) or a committed document.
func buildScenario(c workCase, cfg machineConfig) (*dsmec.Scenario, *dsmec.FaultPlan, string, error) {
	if c.Spec.Scenario != "" {
		path := filepath.Join(c.Dir, c.Spec.Scenario)
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, "", &corpusError{Path: path, Detail: err.Error()}
		}
		defer f.Close()
		sc, fp, err := scenarioio.DecodeWithFaults(f)
		if err != nil {
			return nil, nil, "", &corpusError{Path: path, Detail: err.Error()}
		}
		if sc.Placement != nil {
			return nil, nil, "", &corpusError{Path: path, Detail: "divisible scenarios have no simulator replay; commit a holistic document"}
		}
		if fp.Empty() {
			fp = nil
		}
		return sc, fp, "scenario:" + c.Spec.Scenario, nil
	}

	recipe, _ := recipes.ByName(c.Spec.Recipe) // validated at discovery
	params := recipe.Params
	params.NumDevices = pick(c.Spec.Devices, cfg.Devices)
	params.NumStations = pick(c.Spec.Stations, cfg.Stations)
	params.NumTasks = pick(c.Spec.Tasks, cfg.Tasks)
	params.MaxInput = dsmec.ByteSize(pick(c.Spec.InputKB, cfg.InputKB)) * dsmec.Kilobyte
	sc, err := dsmec.GenerateHolistic(dsmec.NewSeed(c.Spec.Seed), params)
	if err != nil {
		return nil, nil, "", err
	}
	var fp *dsmec.FaultPlan
	if recipe.Faults != nil {
		fp = dsmec.GenerateFaultPlan(dsmec.NewSeed(c.Spec.FaultSeed), sc.System, *recipe.Faults)
	}
	return sc, fp, "recipe:" + c.Spec.Recipe, nil
}

// pick returns the case override when set, the class default otherwise.
func pick(override, fallback int) int {
	if override > 0 {
		return override
	}
	return fallback
}

// deriveMetrics computes the derived metric catalog (see
// workload.DerivedMetricNames) from one finished case.
func deriveMetrics(sc *dsmec.Scenario, res *dsmec.SimResult, allocBytes uint64, m *obs.Manifest) map[string]float64 {
	total := float64(sc.Tasks.Len())
	lost, faultMisses, capacityMisses := 0, 0, res.DeadlineViolations
	if res.Faults != nil {
		lost = res.Faults.Lost
		faultMisses = res.Faults.FaultMisses
		capacityMisses = res.Faults.CapacityMisses
	}
	metrics := map[string]float64{
		"tasks_total":          total,
		"tasks_placed":         float64(res.Placed),
		"tasks_lost":           float64(lost),
		"tasks_cancelled":      float64(res.Cancelled),
		"total_energy_joules":  res.TotalEnergy.Joules(),
		"makespan_seconds":     res.Makespan.Seconds(),
		"mean_latency_seconds": res.MeanLatency().Seconds(),
		"wall_seconds":         m.WallSeconds,
		"cpu_seconds":          m.CPUSeconds,
	}
	if total > 0 {
		metrics["miss_rate"] = float64(res.DeadlineViolations) / total
		metrics["miss_rate.fault"] = float64(faultMisses) / total
		metrics["miss_rate.capacity"] = float64(capacityMisses) / total
		metrics["goodput"] = float64(res.Placed-res.DeadlineViolations) / total
		metrics["alloc_bytes_per_task"] = float64(allocBytes) / total
	}
	return metrics
}

// writeCorpusList prints the discovered corpus.
func writeCorpusList(classes []workClass, w io.Writer) error {
	tb := texttable.New("CLASS", "CASE", "SOURCE", "DESCRIPTION")
	for _, cl := range classes {
		for _, c := range cl.Cases {
			source := "recipe:" + c.Spec.Recipe
			if c.Spec.Scenario != "" {
				source = "scenario:" + c.Spec.Scenario
			}
			desc := c.Spec.Description
			if desc == "" {
				if r, ok := recipes.ByName(c.Spec.Recipe); ok {
					desc = r.Description
				}
			}
			tb.AddRow(cl.Name, c.Name, source, desc)
		}
	}
	_, err := tb.WriteTo(w)
	return err
}
