package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"waferscale/internal/core"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
	"waferscale/internal/noc"
)

// design-sweep: one seeded design study, run repeatedly through a pool
// of nproc workers. Each study is the paper's own form of evaluation:
// the Fig. 6 disconnected-pair Monte Carlo on the 32x32 wafer, a
// two-tier topology x fault-map exploration at 16x16, and a forked
// chaos BFS survival sweep. The cycle engine runs dense here.

// probesPerCandidate is the number of cycle-engine probes that
// core.ExploreTopologiesCtx runs to verify one candidate: a saturation
// probe (CycleModel.SaturationRate) and one loaded-latency rate
// (CycleModel.ThroughputCurve), each noc.ProbeThroughputConfig long.
// core reports no cycle count of its own, so the verify tier's cycles
// are derived from these.
const probesPerCandidate = 2

func verifyCycles(survivors int) int64 {
	cfg := noc.ProbeThroughputConfig()
	return int64(survivors * probesPerCandidate * (cfg.WarmupCycles + cfg.MeasureCycles))
}

type study struct {
	fig6Grid   geom.Grid
	fig6Counts []int
	fig6Trials int
	fig6Seed   int64
	topo       core.TopoSweepSpace
	chaos      core.ChaosConfig
	workers    int
}

func newStudy(seed int64) study {
	rng := rand.New(rand.NewSource(seed))
	workers := runtime.NumCPU()
	chaos := core.DefaultChaosConfig()
	chaos.Side, chaos.Workers, chaos.GraphSide = 4, 8, 6
	chaos.Trials = 3
	chaos.Kills = []int{0, 1, 2}
	// A fault-free run takes about 9k cycles and a killed trial that
	// recovers finishes well inside 20k (the same trials complete at a
	// 50k budget); a trial that does not recover runs to the budget, so
	// a tight budget keeps the sweep's cost from swinging with how many
	// trials recover.
	chaos.MaxCycles = 20_000
	chaos.Seed = rng.Int63()
	chaos.TrialWorkers = workers
	chaos.Fork = true
	return study{
		fig6Grid:   geom.NewGrid(32, 32),
		fig6Counts: []int{5, 10, 20, 40},
		fig6Trials: 12,
		fig6Seed:   rng.Int63(),
		topo:       core.TopoSweepSpace{Side: 16, FaultCounts: []int{0, 4, 8}, Trials: 2, Seed: rng.Int63()},
		chaos:      chaos,
		workers:    workers,
	}
}

// miniStudy is a tiny study run during set-up so lazy initialisation
// does not land in the first measured study.
func miniStudy() study {
	s := newStudy(1)
	s.fig6Grid = geom.NewGrid(16, 16)
	s.fig6Counts, s.fig6Trials = []int{4}, 4
	s.topo = core.TopoSweepSpace{Side: 8, FaultCounts: []int{0, 2}, Seed: 1}
	s.chaos.Trials, s.chaos.Kills = 1, []int{0}
	return s
}

// studyResult is a study's deterministic outcome plus its timings.
type studyResult struct {
	counts       map[string]int64
	verifySecs   float64
	verifyCycles int64
}

// run executes one study and checks its outputs; problems are returned
// as wrong-output descriptions.
func (s study) run(ctx context.Context, tr *Tracer, root int, id int64) (studyResult, []string, error) {
	r := studyResult{counts: map[string]int64{}}
	var wrong []string

	sp := tr.Begin("fault.Fig6Sweep", root, id)
	fig6, err := noc.Fig6SweepCtx(ctx, s.fig6Grid, s.fig6Counts, s.fig6Trials, s.fig6Seed, noc.Fig6Opts{Workers: s.workers})
	tr.End(sp)
	if err != nil {
		return r, nil, err
	}
	var pctSum float64
	for _, p := range fig6 {
		// Two dimension-ordered networks can only connect more pairs
		// than one, and a percentage stays in [0, 100].
		if p.PctDual.Mean > p.PctSingle.Mean || p.PctSingle.Mean < 0 || p.PctSingle.Mean > 100 {
			wrong = append(wrong, fmt.Sprintf("fig6 at %d faults: single %.3f%%, dual %.3f%%", p.Faults, p.PctSingle.Mean, p.PctDual.Mean))
		}
		pctSum += p.PctSingle.Mean + p.PctDual.Mean
	}
	r.counts["fault.fig6_maps"] = int64(len(s.fig6Counts) * s.fig6Trials)
	r.counts["fault.fig6_pct_micro"] = int64(math.Round(pctSum * 1e6))

	sp = tr.Begin("core.ExploreTopologies", root, id)
	t0 := time.Now()
	topo, err := core.ExploreTopologiesCtx(ctx, s.topo, core.TopoSweepOpts{TwoTier: true, Workers: s.workers})
	tr.End(sp)
	if err != nil {
		return r, nil, err
	}
	// ExploreTopologiesCtx times its own two tiers; record them as child
	// spans.
	tr.Add("analytical.screen", sp, id, t0, topo.ScreenElapsed)
	tr.Add("noc.verify", sp, id, t0.Add(topo.ScreenElapsed), topo.VerifyElapsed)
	r.verifySecs = topo.VerifyElapsed.Seconds()
	if topo.Survivors != len(topo.All) || topo.Survivors+topo.ScreenedOut != len(topo.Screened) || len(topo.Frontier) == 0 {
		wrong = append(wrong, fmt.Sprintf("topology sweep accounting: %d screened, %d survivors, %d verified, %d frontier",
			len(topo.Screened), topo.Survivors, len(topo.All), len(topo.Frontier)))
	}
	var satSum float64
	for _, p := range topo.All {
		if !(p.SatRate > 0) || !(p.Latency > 0) {
			wrong = append(wrong, fmt.Sprintf("verified point %s/%d/%d: sat %.4f, latency %.2f", p.Topology, p.Faults, p.Trial, p.SatRate, p.Latency))
		}
		satSum += p.SatRate + p.Latency
	}
	r.counts["analytical.screened"] = int64(len(topo.Screened))
	r.counts["noc.verified"] = int64(topo.Survivors)
	r.counts["core.frontier_pts"] = int64(len(topo.Frontier))
	r.counts["noc.verified_sum_micro"] = int64(math.Round(satSum * 1e6))

	sp = tr.Begin("core.RunChaos", root, id)
	chaos, err := core.NewDesign().RunChaosCtx(ctx, s.chaos)
	tr.End(sp)
	if err != nil {
		return r, nil, err
	}
	var trials, completed, verified int
	var retries, cycles float64
	for _, p := range chaos {
		// With no tile killed every trial must finish with the host
		// oracle's BFS levels.
		if p.Kills == 0 && (p.Completed != p.Trials || p.Verified != p.Trials) {
			wrong = append(wrong, fmt.Sprintf("chaos without kills: %d/%d completed, %d verified", p.Completed, p.Trials, p.Verified))
		}
		trials += p.Trials
		completed += p.Completed
		verified += p.Verified
		retries += p.MeanRetries * float64(p.Trials)
		cycles += p.MeanCycles * float64(p.Trials)
	}
	r.counts["core.chaos_trials"] = int64(trials)
	r.counts["core.chaos_completed"] = int64(completed)
	r.counts["core.chaos_verified"] = int64(verified)
	r.counts["core.chaos_retries"] = int64(math.Round(retries))
	r.counts["core.chaos_cycles"] = int64(math.Round(cycles))
	r.verifyCycles = verifyCycles(topo.Survivors)
	r.counts["sim_cycles"] = r.verifyCycles + int64(math.Round(cycles))
	return r, wrong, nil
}

// dsStudies is the number of seeded studies a run cycles through. Each
// study draws its fault maps, chaos kill schedules and Monte Carlo
// samples from its own derived seed, so a run's median averages over
// dsStudies samples of the design space instead of one, and every study
// still runs at least twice per traced run for the repeat check.
const dsStudies = 4

func runDesignSweep(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	var studies []study
	for j := 0; j < dsStudies; j++ {
		studies = append(studies, newStudy(rng.Int63()))
	}
	if _, wrong, err := miniStudy().run(ctx, nil, 0, 0); err != nil || len(wrong) > 0 {
		return nil, fmt.Errorf("warm-up study: %v %v", err, wrong)
	}
	o.setup = append(o.setup, time.Since(t0).Seconds())
	if cfg.setupOnly {
		return o, nil
	}

	// Tracing alternates per round of dsStudies studies, so traced and
	// untraced phases cover the same studies.
	refs := make([]map[string]int64, dsStudies)
	minJobs := dsStudies
	if cfg.tracer != nil {
		minJobs = 2 * dsStudies
	}
	start := time.Now()
	for k := 0; k < minJobs || time.Since(start).Seconds() < cfg.seconds; k++ {
		tr := cfg.phaseTracer(k / dsStudies)
		i := k % dsStudies
		id := int64(k + 1)
		o.attempted++
		root := tr.Begin("job", 0, id)
		t0 := time.Now()
		r, wrong, err := studies[i].run(ctx, tr, root, id)
		secs := time.Since(t0).Seconds()
		tr.End(root)
		ph := phase{traced: tr != nil, secs: secs}
		var diff string
		if err == nil && refs[i] != nil {
			diff = diffCounts(refs[i], r.counts)
		}
		switch {
		case err != nil:
			o.fail(false, "study %d: %v", i, err)
		case len(wrong) > 0:
			o.fail(true, "study %d: %v", i, wrong)
		case diff != "":
			o.fail(true, "study %d: simulated counts changed between repeats: %s", i, diff)
		default:
			if refs[i] == nil {
				refs[i] = r.counts
			}
			o.addJob(secs*1000, tr != nil)
			ph.jobs, ph.simCycles, ph.simSecs = 1, r.verifyCycles, r.verifySecs
		}
		o.phases = append(o.phases, ph)
	}
	// The behaviour record sums the studies (a study that never
	// completed is already counted as failed).
	for _, ref := range refs {
		for k, v := range ref {
			o.counts[k] += v
		}
	}
	ref := o.counts

	if cfg.tracer != nil {
		lt := aggregate(cfg.tracer.Spans())
		o.layer["sim_cycles"] = float64(ref["sim_cycles"])
		o.layer["analytical.screen_ms"] = lt.meanMs("analytical.screen")
		o.layer["analytical.screened"] = float64(ref["analytical.screened"])
		o.layer["noc.verify_ms"] = lt.meanMs("noc.verify")
		o.layer["noc.verified"] = float64(ref["noc.verified"])
		o.layer["core.frontier_pts"] = float64(ref["core.frontier_pts"])
		o.layer["fault.fig6_ms"] = lt.meanMs("fault.Fig6Sweep")
		o.layer["fault.fig6_maps"] = float64(ref["fault.fig6_maps"])
		o.layer["core.chaos_ms"] = lt.meanMs("core.RunChaos")
		trials := float64(ref["core.chaos_trials"])
		o.layer["core.chaos_trials"] = trials
		o.layer["core.chaos_completed_frac"] = ratio(float64(ref["core.chaos_completed"]), trials)
		o.layer["core.chaos_verified_frac"] = ratio(float64(ref["core.chaos_verified"]), trials)
		o.layer["core.chaos_retries"] = float64(ref["core.chaos_retries"])

		// Packet density of the dense regime: one verify-tier saturation
		// probe on the fault-free 16x16 mesh, by Little's law.
		g := geom.NewGrid(studies[0].topo.Side, studies[0].topo.Side)
		pts, err := noc.MeasureThroughput(fault.NewMap(g), noc.ProbeThroughputConfig(), []float64{math.Min(1, 1.5*noc.IdealSaturation("", g))})
		if err != nil {
			return nil, err
		}
		o.layer["noc.inflight_per_router"] = pts[0].DeliveredRate * pts[0].AvgLatency
	}
	return o, nil
}

func diffCounts(a, b map[string]int64) string {
	for _, k := range unionKeys(a, b) {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %d vs %d", k, a[k], b[k])
		}
	}
	return ""
}
