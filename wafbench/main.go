// Command wafbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every output the program
// produces, and prints one JSON line with the workload's metrics:
//
//	wafbench --workload graph-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates traced and untraced phases, records spans around the calls
// into each layer, and prints the per-layer metrics plus the tracing
// overhead. See README.md for the workloads and metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"waferscale/internal/fault"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the
// benchmark's contract and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"sim_cycles_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"sim_cycles", "cycles"},
	{"noc.inflight_per_router", "pkt"},
	{"noc.delivered", "count"},
	{"noc.avg_latency_cyc", "cycles"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.host_ns_per_instr", "ns"},
	{"sim.instructions", "count"},
	{"sim.remote_ops", "count"},
	{"sim.retries", "count"},
	{"workload.run_ms", "ms"},
	{"workload.place_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"workload.verify_ms", "ms"},
	{"workload.crit_path_cycles", "cycles"},
	{"analytical.screen_ms", "ms"},
	{"analytical.screened", "count"},
	{"noc.verify_ms", "ms"},
	{"noc.verified", "count"},
	{"core.frontier_pts", "count"},
	{"fault.fig6_ms", "ms"},
	{"fault.fig6_maps", "count"},
	{"core.chaos_ms", "ms"},
	{"core.chaos_trials", "count"},
	{"core.chaos_completed_frac", "frac"},
	{"core.chaos_verified_frac", "frac"},
	{"core.chaos_retries", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.normalize_us", "us"},
	{"serve.result_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.exec_ms.droop", "ms"},
	{"serve.exec_ms.throughput", "ms"},
	{"serve.exec_ms.workload", "ms"},
	{"serve.exec_ms.nocmc", "ms"},
	{"serve.exec_ms.chaos", "ms"},
	{"serve.hit_frac", "frac"},
	{"serve.disk_hit_frac", "frac"},
	{"serve.dedup_joins", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"fail_frac", "frac"},
	{"harness.self_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.delta_job_p50_ms", "ms"},
	{"trace.delta_jobs_per_s", "1/s"},
}

// outDir holds everything a run leaves behind, inside the checkout.
var outDir = filepath.Join(".bench_build", "wafbench")

// setups is how many times each workload sets up per run; setup_s is
// the median. Every set-up is cold: the run's own, and setups-1 more in
// child processes of this binary (see coldSetups), half of them before
// the measured window and half after it, so the median spans the run's
// whole stretch of host time rather than a few seconds of it.
const setups = 9

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	tracer  *Tracer // nil for an untraced run
	workDir string  // scratch space inside the checkout
	// setupOnly makes the workload set up once and return: the child
	// process of coldSetups.
	setupOnly bool
}

// phaseTracer returns the tracer for the k-th measured phase: traced
// runs alternate untraced and traced phases, starting untraced, so the
// tracing overhead is measured inside the run.
func (c runConfig) phaseTracer(k int) *Tracer {
	if k%2 == 1 {
		return c.tracer
	}
	return nil
}

// jobSample is one measured unit of work.
type jobSample struct {
	ms     float64
	traced bool
}

// phase is a window of the measured time with tracing on or off: a
// pass over the job list, one study, or a time slice. Rates are taken
// per phase and reported as the median over phases, so a short burst
// of host contention moves them little.
type phase struct {
	traced    bool
	secs      float64
	jobs      int     // jobs completed correctly
	simCycles int64   // cycles simulated by those jobs
	simSecs   float64 // host seconds in the calls that simulated them
}

// outcome is what a workload reports back.
type outcome struct {
	setup  []float64 // seconds, one entry per set-up
	jobs   []jobSample
	phases []phase

	attempted, failed int
	// wrong counts outputs that disagree with their reference (a subset
	// of failed); any makes the run incorrect.
	wrong int
	notes []string

	// counts is the behaviour record: simulated quantities that must be
	// identical for the same code and seed.
	counts map[string]int64
	layer  map[string]float64
}

func newOutcome() *outcome {
	return &outcome{counts: map[string]int64{}, layer: map[string]float64{}}
}

func (o *outcome) addJob(ms float64, traced bool) {
	o.jobs = append(o.jobs, jobSample{ms: ms, traced: traced})
}

func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"graph-sim":    runGraphSim,
	"design-sweep": runDesignSweep,
	"serve-mixed":  runServeMixed,
}

func main() {
	name := flag.String("workload", "", "workload: graph-sim | design-sweep | serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the set-up time and exit")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wafbench: need --workload graph-sim|design-sweep|serve-mixed, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	var err error
	if *setupOnly {
		err = setupChild(run, *seed)
	} else {
		err = benchmark(*name, run, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wafbench: %v\n", err)
		os.Exit(1)
	}
}

func benchmark(name string, run func(runConfig) (*outcome, error), seed int64, seconds float64, trace int) error {
	traced := trace == 1
	workDir, err := makeWorkDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	steal0 := stealSeconds()
	before, err := coldSetups(name, seed, (setups-1)/2)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	cfg := runConfig{seed: seed, seconds: seconds, workDir: workDir}
	if traced {
		cfg.tracer = newTracer()
	}
	out, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out.attempted < 1 || len(out.setup) != 1 {
		return fmt.Errorf("%s: no work measured", name)
	}
	after, err := coldSetups(name, seed, setups-1-len(before))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	steal := stealSeconds() - steal0
	out.setup = append(append(before, out.setup...), after...)
	e2e := endToEndMetrics(out)
	layer := perLayerMetrics(out, cfg.tracer)

	binHash, err := executableHash()
	if err != nil {
		return err
	}
	behaviourOK, err := checkBehaviour(filepath.Join(outDir, "behaviour"), name, seed, binHash, out.counts)
	if err != nil {
		return err
	}
	if !behaviourOK {
		out.notes = append(out.notes, "behaviour record differs from an earlier run of this binary and seed")
	}
	correct := out.wrong == 0 && behaviourOK

	host := readHostMeta()
	tag := fmt.Sprintf("%s-seed%d-trace%d-%d", name, seed, trace, time.Now().UnixNano())
	record := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
		"host": host, "host_steal_s": steal, "binary": binHash,
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "notes": out.notes,
		"end_to_end": e2e, "per_layer": layer, "behaviour": out.counts,
		"windows": windowRates(out.phases), "setups_s": out.setup,
	}
	if err := writeJSON(filepath.Join(outDir, "results", tag+".json"), record); err != nil {
		return err
	}
	if traced {
		if err := cfg.tracer.WriteFile(filepath.Join(outDir, "traces", tag+".json")); err != nil {
			return err
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "wafbench: %s: %s\n", name, n)
	}
	fmt.Printf("host: %s GOMAXPROCS=%d nproc=%d cpu=%q steal=%.2fs record=%s\n",
		host.GoVersion, host.GOMAXPROCS, host.NProc, host.CPUModel, steal, filepath.Join(outDir, "results", tag+".json"))

	metrics := e2e
	if traced {
		metrics = layer
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// coldSetups runs n set-ups of the workload, each in a fresh child
// process of this binary, one after another. A set-up in a fresh
// process pays every one-time initialisation (lazy tables, heap growth,
// a new data directory), as the run's own first set-up does.
func coldSetups(name string, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var r struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(b, &r); err != nil || r.SetupS <= 0 {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		out = append(out, r.SetupS)
	}
	return out, nil
}

// setupChild is the child side of coldSetups: it sets up once in its own
// scratch directory and prints the set-up time.
func setupChild(run func(runConfig) (*outcome, error), seed int64) error {
	workDir, err := makeWorkDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	out, err := run(runConfig{seed: seed, workDir: workDir, setupOnly: true})
	if err != nil {
		return err
	}
	if len(out.setup) != 1 {
		return fmt.Errorf("set-up child measured %d set-ups", len(out.setup))
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": out.setup[0]})
}

// makeWorkDir creates the process's scratch directory inside the
// checkout.
func makeWorkDir() (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

func endToEndMetrics(o *outcome) map[string]metric {
	all := latencies(o.jobs, false)
	jobRate, simRate := phaseRates(o.phases, false)
	vals := map[string]float64{
		"setup_s":          median(o.setup),
		"peak_rss_mb":      peakRSSMiB(),
		"jobs_per_s":       jobRate,
		"job_p50_ms":       median(all),
		"job_p99_ms":       fault.Percentile(all, 99),
		"sim_cycles_per_s": simRate,
	}
	return withUnits(endToEnd, vals)
}

// perLayerMetrics fills the per-layer list: the workload's own values,
// the tracing overhead and the harness self time. Layers a workload
// does not exercise read 0.
func perLayerMetrics(o *outcome, t *Tracer) map[string]metric {
	vals := map[string]float64{}
	for k, v := range o.layer {
		vals[k] = v
	}
	vals["fail_frac"] = float64(o.failed) / float64(o.attempted)
	if t != nil {
		spans := t.Spans()
		vals["trace.spans"] = float64(len(spans))
		vals["harness.self_ms"] = aggregate(spans).meanMs("job")
		on, off := latencies(o.jobs, true), latencies(o.jobs, false)
		if len(on) > 0 && len(off) > 0 {
			onRate, _ := phaseRates(o.phases, true)
			offRate, _ := phaseRates(o.phases, false)
			vals["trace.delta_job_p50_ms"] = median(on) - median(off)
			vals["trace.delta_jobs_per_s"] = onRate - offRate
		}
	}
	return withUnits(perLayer, vals)
}

// latencies returns the job latencies (ms) of the traced or untraced
// phases.
func latencies(jobs []jobSample, traced bool) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.traced == traced {
			out = append(out, j.ms)
		}
	}
	return out
}

// phaseRates returns the median job rate and simulated-cycle rate over
// the traced or untraced phases.
func phaseRates(phases []phase, traced bool) (jobsPerSec, cyclesPerSec float64) {
	var jr, cr []float64
	for _, p := range phases {
		if p.traced != traced {
			continue
		}
		jr = append(jr, ratio(float64(p.jobs), p.secs))
		if p.simSecs > 0 {
			cr = append(cr, float64(p.simCycles)/p.simSecs)
		}
	}
	return median(jr), median(cr)
}

// windowRates lists each window's job rate, for judging how steady a run
// was.
func windowRates(phases []phase) []float64 {
	out := make([]float64, len(phases))
	for i, p := range phases {
		out[i] = ratio(float64(p.jobs), p.secs)
	}
	return out
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	known := map[string]bool{}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		known[d.name] = true
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for k := range vals {
		if !known[k] {
			panic("wafbench: metric " + k + " is not in the metric list")
		}
	}
	return out
}

// checkBehaviour compares the run's behaviour record with the one an
// earlier run of the same binary, workload and seed left behind, and
// stores this run's record. It reports false on any difference.
func checkBehaviour(dir, name string, seed int64, binHash string, counts map[string]int64) (bool, error) {
	type rec struct {
		Binary string           `json:"binary"`
		Counts map[string]int64 `json:"counts"`
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	ok := true
	if b, err := os.ReadFile(path); err == nil {
		var prev rec
		if json.Unmarshal(b, &prev) == nil && prev.Binary == binHash {
			for _, k := range unionKeys(prev.Counts, counts) {
				if prev.Counts[k] != counts[k] {
					fmt.Fprintf(os.Stderr, "wafbench: behaviour %s: %d before, %d now\n", k, prev.Counts[k], counts[k])
					ok = false
				}
			}
			if !ok {
				return false, nil // keep the first record as the reference
			}
		}
	}
	return ok, writeJSON(path, rec{Binary: binHash, Counts: counts})
}

func unionKeys(a, b map[string]int64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]int64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
