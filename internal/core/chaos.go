package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"waferscale/internal/fault"
	"waferscale/internal/inject"
	"waferscale/internal/parallel"
	"waferscale/internal/sim"
)

// Chaos Monte Carlo: the runtime analogue of the Fig. 6 static yield
// sweep. Where fault.MonteCarlo asks "what fraction of randomly-faulty
// wafers is still connected?", RunChaos asks "what fraction of live
// BFS runs survives tiles dying mid-run?" — it executes the kernel on
// the functional simulator under seeded inject.Schedules and reports
// completion (the machine quiesced within budget) and verification
// (the answer still matched the host oracle) rates per kill count.

// ChaosConfig parametrizes a chaos sweep.
type ChaosConfig struct {
	Side       int      // reduced machine array side (Side x Side tiles)
	Workers    int      // BFS worker cores, spread across tiles
	Trials     int      // runs per kill count
	Seed       int64    // master seed; trials derive decorrelated seeds
	Kills      []int    // tile kill counts to sweep
	KillWindow [2]int64 // cycle window kills are drawn from
	MaxCycles  int64    // per-run cycle budget (the never-hang bound)
	GraphSide  int      // workload is BFS on a GraphSide x GraphSide mesh
	// TrialWorkers bounds the host goroutine pool running trials
	// (0 = GOMAXPROCS). Workers above is the number of *simulated* BFS
	// worker cores, a property of the experiment, not the host.
	TrialWorkers int

	// Fork runs each kill count's trials off a shared warm prefix: the
	// fault-free machine is built and prepared once, advanced to each
	// trial's fork cycle (the cycle before its first injected kill) and
	// forked per trial, instead of replaying the identical fault-free
	// prefix from cycle 0 in every trial. Results are bit-identical to
	// the from-scratch path at any trial-worker setting; only wall clock
	// changes. Fork is a host execution knob like TrialWorkers — it must
	// not enter spec hashes or cache keys.
	Fork bool

	// Progress, when non-nil, is invoked after every completed trial
	// with the cumulative trials finished across the whole sweep, the
	// total (Trials * len(Kills)), and the cumulative machine cycles
	// stepped by completed trials. It runs on the trial worker
	// goroutines and must be safe for concurrent use. It does not
	// affect the results.
	Progress func(trialsDone, trialsTotal int, cyclesStepped int64)
}

// DefaultChaosConfig returns the standard sweep: an 8x8 machine running
// 16-worker BFS with 0..8 kills injected early in the run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Side:       8,
		Workers:    16,
		Trials:     8,
		Seed:       2021,
		Kills:      []int{0, 1, 2, 4, 8},
		KillWindow: [2]int64{500, 5000},
		MaxCycles:  400_000,
		GraphSide:  8,
		Fork:       true,
	}
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if c.Side < 2 {
		return fmt.Errorf("core: chaos side %d must be >= 2", c.Side)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: chaos needs >= 1 worker")
	}
	if c.Trials < 1 {
		return fmt.Errorf("core: chaos needs >= 1 trial")
	}
	if c.MaxCycles < 1 {
		return fmt.Errorf("core: chaos needs a positive cycle budget")
	}
	if c.GraphSide < 2 {
		return fmt.Errorf("core: chaos graph side %d must be >= 2", c.GraphSide)
	}
	for _, k := range c.Kills {
		if k < 0 || k > c.Side*c.Side {
			return fmt.Errorf("core: kill count %d outside 0..%d", k, c.Side*c.Side)
		}
	}
	return nil
}

// ChaosPoint is one row of the survival curve.
type ChaosPoint struct {
	Kills     int
	Trials    int
	Completed int // runs that quiesced within the cycle budget
	Verified  int // runs whose BFS output still matched the oracle

	// Mean per-trial degradation work.
	MeanRetries float64
	MeanRelays  float64
	MeanLostKiB float64
	MeanCycles  float64
}

// CompletedRate returns the fraction of trials that quiesced.
func (p ChaosPoint) CompletedRate() float64 {
	return float64(p.Completed) / float64(p.Trials)
}

// VerifiedRate returns the fraction of trials with a correct answer.
func (p ChaosPoint) VerifiedRate() float64 {
	return float64(p.Verified) / float64(p.Trials)
}

type chaosTrial struct {
	completed bool
	verified  bool
	retries   int64
	relays    int64
	lostBytes int64
	cycles    int64
}

// RunChaos executes the sweep and returns one point per kill count.
// Trials run on independent machines over the shared bounded pool
// (cfg.TrialWorkers goroutines, 0 = GOMAXPROCS); the outcome is
// deterministic for a fixed config regardless of worker count
// (per-trial seeds are derived via fault.TrialSeed, not drawn from
// shared state).
func (d *Design) RunChaos(cfg ChaosConfig) ([]ChaosPoint, error) {
	return d.RunChaosCtx(context.Background(), cfg)
}

// RunChaosCtx is RunChaos with cancellation: ctx is threaded through
// the trial pool and into every trial machine's cycle loop, so a
// cancel stops work promptly even mid-trial (within a few thousand
// simulated cycles). On cancellation it returns the points for kill
// counts fully completed before the cancel (a prefix of cfg.Kills,
// possibly empty) together with ctx.Err().
func (d *Design) RunChaosCtx(ctx context.Context, cfg ChaosConfig) ([]ChaosPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.GridGraph(cfg.GraphSide, cfg.GraphSide).Unweighted()
	want := g.ReferenceSSSP(0)

	var (
		trialsDone    atomic.Int64
		cyclesStepped atomic.Int64
	)
	trialsTotal := cfg.Trials * len(cfg.Kills)
	report := func(t chaosTrial) {
		if cfg.Progress != nil {
			cfg.Progress(int(trialsDone.Add(1)), trialsTotal, cyclesStepped.Add(t.cycles))
		}
	}

	points := make([]ChaosPoint, 0, len(cfg.Kills))
	for _, kills := range cfg.Kills {
		var trials []chaosTrial
		var err error
		if cfg.Fork {
			trials, err = d.runForkedChaosPoint(ctx, cfg, g, want, kills, report)
		} else {
			trials = make([]chaosTrial, cfg.Trials)
			err = parallel.ForEach(ctx, cfg.Trials, cfg.TrialWorkers, func(i int) error {
				t, terr := d.runChaosTrial(ctx, cfg, g, want, kills, i)
				if terr != nil {
					return terr
				}
				trials[i] = t
				report(t)
				return nil
			})
		}
		if err != nil {
			return points, err
		}

		p := ChaosPoint{Kills: kills, Trials: cfg.Trials}
		for _, t := range trials {
			if t.completed {
				p.Completed++
			}
			if t.verified {
				p.Verified++
			}
			p.MeanRetries += float64(t.retries)
			p.MeanRelays += float64(t.relays)
			p.MeanLostKiB += float64(t.lostBytes) / 1024
			p.MeanCycles += float64(t.cycles)
		}
		n := float64(cfg.Trials)
		p.MeanRetries /= n
		p.MeanRelays /= n
		p.MeanLostKiB /= n
		p.MeanCycles /= n
		points = append(points, p)
	}
	return points, nil
}

func (d *Design) runChaosTrial(ctx context.Context, cfg ChaosConfig, g *sim.Graph, want []int32, kills, trial int) (chaosTrial, error) {
	m, err := d.BuildMachine(cfg.Side, nil)
	if err != nil {
		return chaosTrial{}, err
	}
	sched := inject.Random(m.Cfg.Grid(), kills, cfg.KillWindow, fault.TrialSeed(cfg.Seed, kills, trial), nil)
	if err := m.AttachSchedule(sched); err != nil {
		return chaosTrial{}, err
	}
	ws := sim.SpreadWorkers(m, cfg.Workers)
	res, err := sim.RunSSSPUnderFaultsCtx(ctx, m, g, 0, ws, cfg.MaxCycles)
	if err != nil {
		return chaosTrial{}, err
	}
	t := chaosTrial{
		completed: res.Completed,
		retries:   res.Report.RetriedOps,
		relays:    res.Report.RelayedRequests + res.Report.RelayedResponses,
		lostBytes: res.Report.LostSharedBytes,
		cycles:    res.Cycles,
	}
	if res.Completed && res.ReadErrors == 0 && len(m.Faults()) == 0 {
		t.verified = sim.CountMismatches(res.Dist, want) == 0
	}
	return t, nil
}

// runForkedChaosPoint runs one kill count's trials off a shared warm
// prefix. The fault-free machine is built and the workload loaded once;
// trials are ordered by fork cycle (the cycle before each trial's first
// injected kill, clamped to the cycle budget), the prefix is advanced
// monotonically to each fork cycle, and an independent fork finishes
// every trial.
//
// Bit-identity with the from-scratch path follows from three facts: the
// prefix carries no schedule and no trial fires events at or before its
// fork cycle, so the prefix states agree; a fork is a deep copy, so
// stepping it from the fork cycle is the same computation from-scratch
// stepping performs; and per-trial seeds come from fault.TrialSeed, not
// shared state, so trial order and worker count do not matter.
func (d *Design) runForkedChaosPoint(ctx context.Context, cfg ChaosConfig, g *sim.Graph, want []int32, kills int, report func(chaosTrial)) ([]chaosTrial, error) {
	m0, err := d.BuildMachine(cfg.Side, nil)
	if err != nil {
		return nil, err
	}
	ws := sim.SpreadWorkers(m0, cfg.Workers)
	distA, err := sim.PrepareSSSP(m0, g, 0, ws)
	if err != nil {
		return nil, err
	}

	trials := make([]chaosTrial, cfg.Trials)

	// finish owns fm: it attaches the trial's schedule, runs to the
	// absolute cycle budget, and collects the result. Each call writes a
	// distinct trials slot, so concurrent finishes do not race.
	finish := func(fm *sim.Machine, sched *inject.Schedule, trial int) error {
		if err := fm.AttachSchedule(sched); err != nil {
			return err
		}
		if err := fm.RunToCycleCtx(ctx, cfg.MaxCycles); err != nil {
			return err
		}
		var runErr error
		if !fm.AllHalted() {
			runErr = &sim.BudgetError{Cycles: cfg.MaxCycles}
		}
		res := sim.CollectSSSP(fm, g, distA, runErr)
		t := chaosTrial{
			completed: res.Completed,
			retries:   res.Report.RetriedOps,
			relays:    res.Report.RelayedRequests + res.Report.RelayedResponses,
			lostBytes: res.Report.LostSharedBytes,
			cycles:    res.Cycles,
		}
		if res.Completed && res.ReadErrors == 0 && len(fm.Faults()) == 0 {
			t.verified = sim.CountMismatches(res.Dist, want) == 0
		}
		trials[trial] = t
		report(t)
		return nil
	}

	if kills == 0 {
		// No events at all: every trial is the same fault-free run (the
		// per-trial seed only feeds schedule generation). Run it once on
		// the prefix machine itself and replicate the outcome.
		if err := finish(m0, inject.Random(m0.Cfg.Grid(), 0, cfg.KillWindow, fault.TrialSeed(cfg.Seed, 0, 0), nil), 0); err != nil {
			return nil, err
		}
		for i := 1; i < cfg.Trials; i++ {
			trials[i] = trials[0]
			report(trials[0])
		}
		return trials, nil
	}

	scheds := make([]*inject.Schedule, cfg.Trials)
	forkAt := make([]int64, cfg.Trials)
	order := make([]int, cfg.Trials)
	for i := range scheds {
		scheds[i] = inject.Random(m0.Cfg.Grid(), kills, cfg.KillWindow, fault.TrialSeed(cfg.Seed, kills, i), nil)
		fc := int64(0)
		if evs := scheds[i].Events(); len(evs) > 0 {
			// The first event at cycle k fires during the step that makes
			// cycle == k, so the latest safe fork point is k-1 — clamped
			// to the budget, past which from-scratch runs never step.
			fc = evs[0].Cycle - 1
		}
		if fc < 0 {
			fc = 0
		}
		if fc > cfg.MaxCycles {
			fc = cfg.MaxCycles
		}
		forkAt[i] = fc
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return forkAt[order[a]] < forkAt[order[b]] })

	workers := parallel.Workers(cfg.TrialWorkers, cfg.Trials)
	if workers <= 1 {
		for _, i := range order {
			if err := m0.RunToCycleCtx(ctx, forkAt[i]); err != nil {
				return nil, err
			}
			if err := finish(m0.Fork(), scheds[i], i); err != nil {
				return nil, err
			}
		}
		return trials, nil
	}

	// Producer/consumer: this goroutine advances the prefix and hands a
	// fresh fork to the pool per trial; the pool finishes trials
	// concurrently. The channel is unbuffered so at most one fork waits
	// unowned.
	type forkJob struct {
		trial int
		m     *sim.Machine
	}
	jobs := make(chan forkJob)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var poolErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if err := finish(jb.m, scheds[jb.trial], jb.trial); err != nil {
					mu.Lock()
					if poolErr == nil {
						poolErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	var prodErr error
	for _, i := range order {
		mu.Lock()
		failed := poolErr != nil
		mu.Unlock()
		if failed {
			break
		}
		if err := m0.RunToCycleCtx(ctx, forkAt[i]); err != nil {
			prodErr = err
			break
		}
		jobs <- forkJob{trial: i, m: m0.Fork()}
	}
	close(jobs)
	wg.Wait()
	if prodErr != nil {
		return nil, prodErr
	}
	if poolErr != nil {
		return nil, poolErr
	}
	return trials, nil
}

// FormatChaos renders the survival curve as an aligned text table.
func FormatChaos(points []ChaosPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s  %9s  %9s  %9s  %9s  %9s  %11s\n",
		"kills", "completed", "verified", "retries", "relays", "lostKiB", "meanCycles")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d  %8.1f%%  %8.1f%%  %9.1f  %9.1f  %9.1f  %11.0f\n",
			p.Kills, p.CompletedRate()*100, p.VerifiedRate()*100,
			p.MeanRetries, p.MeanRelays, p.MeanLostKiB, p.MeanCycles)
	}
	return b.String()
}
