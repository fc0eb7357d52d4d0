package workload

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/inject"
	"waferscale/internal/parallel"
	"waferscale/internal/sim"
)

// Operator-graph chaos: the core.RunChaos pattern pointed at a task
// graph instead of BFS. Each trial builds a fresh machine, arms a
// seeded kill schedule, and runs the graph; the survival curve reports
// how often an LLM-shaped pipeline still completes — and still matches
// the host reference bit for bit — as tiles die under it mid-operator.

// BuildMachine constructs a fault-free side x side machine on the named
// topology with every per-tile parameter inherited from the paper's
// configuration (the same reduction core.Design.BuildMachine performs,
// plus the topology axis).
func BuildMachine(side int, topology string) (*sim.Machine, error) {
	if side <= 0 {
		side = 4
	}
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY, cfg.JTAGChains = side, side, side
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("workload: reduced system invalid: %w", err)
	}
	return sim.NewMachineTopology(cfg, fault.NewMap(cfg.Grid()), topology)
}

// ChaosConfig parametrizes a per-graph survival sweep.
type ChaosConfig struct {
	Side       int      // machine array side
	Topology   string   // NoC topology ("" = mesh)
	Placement  string   // placement policy ("" = rowmajor)
	Trials     int      // runs per kill count
	Seed       int64    // master seed; fault.TrialSeed decorrelates trials
	Kills      []int    // tile kill counts to sweep
	KillWindow [2]int64 // cycle window kills are drawn from
	// WorkersPerOp / OpBudget mirror Options.
	WorkersPerOp int
	OpBudget     int64
	// TrialWorkers bounds the host pool running trials (0 = GOMAXPROCS);
	// a wall-clock knob — results are bit-identical at any setting.
	TrialWorkers int
	// Progress, when non-nil, is called after each finished trial with
	// cumulative counts. Concurrency-safe required.
	Progress func(done, total int)
}

// DefaultChaosConfig mirrors core.DefaultChaosConfig at workload scale.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Side:       4,
		Trials:     8,
		Seed:       2021,
		Kills:      []int{0, 1, 2, 4},
		KillWindow: [2]int64{200, 4000},
	}
}

// Validate checks the configuration.
func (c ChaosConfig) Validate() error {
	if c.Side < 2 {
		return fmt.Errorf("workload: chaos side %d must be >= 2", c.Side)
	}
	if c.Trials < 1 {
		return fmt.Errorf("workload: chaos needs >= 1 trial")
	}
	for _, k := range c.Kills {
		if k < 0 || k > c.Side*c.Side {
			return fmt.Errorf("workload: kill count %d outside 0..%d", k, c.Side*c.Side)
		}
	}
	return nil
}

// ChaosPoint is one row of the survival curve.
type ChaosPoint struct {
	Kills     int `json:"kills"`
	Trials    int `json:"trials"`
	Completed int `json:"completed"` // every operator ran to quiescence
	Verified  int `json:"verified"`  // outputs matched the host reference

	MeanRetries float64 `json:"meanRetries"`
	MeanRelays  float64 `json:"meanRelays"`
	MeanLostKiB float64 `json:"meanLostKiB"`
	MeanCycles  float64 `json:"meanCycles"`
}

// CompletedRate returns the fraction of trials that completed.
func (p ChaosPoint) CompletedRate() float64 { return float64(p.Completed) / float64(p.Trials) }

// VerifiedRate returns the fraction of trials with bit-exact outputs.
func (p ChaosPoint) VerifiedRate() float64 { return float64(p.Verified) / float64(p.Trials) }

type chaosTrial struct {
	completed bool
	verified  bool
	retries   int64
	relays    int64
	lostBytes int64
	cycles    int64
}

// RunChaos executes the survival sweep for g.
func RunChaos(cfg ChaosConfig, g *Graph) ([]ChaosPoint, error) {
	return RunChaosCtx(context.Background(), cfg, g)
}

// RunChaosCtx is RunChaos with cancellation. Trials are independent
// machines over a bounded pool; per-trial seeds come from
// fault.TrialSeed, so the outcome is deterministic at any worker count.
func RunChaosCtx(ctx context.Context, cfg ChaosConfig, g *Graph) ([]ChaosPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	want, err := Reference(g)
	if err != nil {
		return nil, err
	}

	var done atomic.Int64
	total := cfg.Trials * len(cfg.Kills)
	report := func() {
		if cfg.Progress != nil {
			cfg.Progress(int(done.Add(1)), total)
		}
	}

	points := make([]ChaosPoint, 0, len(cfg.Kills))
	for _, kills := range cfg.Kills {
		trials := make([]chaosTrial, cfg.Trials)
		runOne := func(i int) error {
			t, err := runChaosTrial(ctx, cfg, g, want, kills, i)
			if err != nil {
				return err
			}
			trials[i] = t
			report()
			return nil
		}
		if kills == 0 {
			// Every fault-free trial is the same deterministic run; do it
			// once and replicate.
			if err := runOne(0); err != nil {
				return points, err
			}
			for i := 1; i < cfg.Trials; i++ {
				trials[i] = trials[0]
				report()
			}
		} else if err := parallel.ForEach(ctx, cfg.Trials, cfg.TrialWorkers, runOne); err != nil {
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

func runChaosTrial(ctx context.Context, cfg ChaosConfig, g *Graph, want map[string][]int32, kills, trial int) (chaosTrial, error) {
	m, err := BuildMachine(cfg.Side, cfg.Topology)
	if err != nil {
		return chaosTrial{}, err
	}
	sched := inject.Random(m.Cfg.Grid(), kills, cfg.KillWindow, fault.TrialSeed(cfg.Seed, kills, trial), nil)
	if err := m.AttachSchedule(sched); err != nil {
		return chaosTrial{}, err
	}
	outputs, rep, err := RunCtx(ctx, m, g, Options{
		Placement:    cfg.Placement,
		WorkersPerOp: cfg.WorkersPerOp,
		OpBudget:     cfg.OpBudget,
	})
	if err != nil {
		return chaosTrial{}, err
	}
	t := chaosTrial{
		completed: rep.Completed,
		retries:   rep.Degradation.RetriedOps,
		relays:    rep.Degradation.RelayedRequests + rep.Degradation.RelayedResponses,
		lostBytes: rep.Degradation.LostSharedBytes,
		cycles:    rep.TotalCycles,
	}
	if rep.Completed {
		t.verified = len(CompareOutputs(outputs, want)) == 0
	}
	return t, nil
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
