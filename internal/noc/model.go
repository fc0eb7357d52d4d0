package noc

import (
	"context"
	"fmt"
	"math/rand"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// LatencyModel is the pluggable timing backend behind the NoC-facing
// analyses (ROADMAP item 5): the cycle-accurate Sim and the closed-form
// model in noc/analytical answer the same questions — pair latency
// under load, saturation throughput, latency-throughput curves over a
// fault map — behind this seam, so sweeps pick a backend per run.
// Backends are never interchangeable silently: every result carries
// ModelName, and the serve layer keys approximate and exact runs as
// different specs.
type LatencyModel interface {
	// ModelName identifies the backend ("cycle" or "analytical"); it
	// labels results and separates cache keys.
	ModelName() string
	// Grid returns the tile array the model was built over.
	Grid() geom.Grid
	// PairLatency estimates the cycles a request packet needs from src
	// to dst on the given network when every healthy tile injects
	// `rate` packets per cycle of uniform background traffic
	// (rate 0 = unloaded). ok is false when the DoR path is blocked by
	// faults (the packet would be dropped, not delivered).
	PairLatency(net Network, src, dst geom.Coord, rate float64) (cycles float64, ok bool)
	// SaturationRate returns the per-tile injection rate (both networks
	// combined) at which delivered throughput plateaus.
	SaturationRate() float64
	// ThroughputCurve evaluates the latency-throughput sweep at the
	// offered rates, one ThroughputPoint per rate.
	ThroughputCurve(ctx context.Context, rates []float64) ([]ThroughputPoint, error)
}

// The backend names results are labeled with.
const (
	ModelNameCycle      = "cycle"
	ModelNameAnalytical = "analytical"
)

// ProbeThroughputConfig returns the compact measurement window the DSE
// drivers use for per-design-point NoC probes: large enough to reach
// steady state on the array sizes the sweeps visit, small enough that
// a cycle-accurate probe stays in the tens of milliseconds. The
// full-length DefaultThroughputConfig remains the reference window for
// standalone throughput jobs and the accuracy suite.
func ProbeThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Sim:           DefaultSimConfig(),
		WarmupCycles:  80,
		MeasureCycles: 240,
		Seed:          1,
	}
}

// CycleModel adapts the cycle-accurate packet simulator to the
// LatencyModel seam — the exact oracle the analytical backend is
// validated against. Every query runs real seeded simulations, so it
// is deterministic and as expensive as the engine underneath.
type CycleModel struct {
	FM  *fault.Map
	Cfg ThroughputConfig // measurement window (incl. Topology); zero value -> Default

	// ProbePackets is the number of probe packets averaged by
	// PairLatency; 0 means 8.
	ProbePackets int
}

// NewCycleModel returns a cycle-accurate backend over the fault map
// with the default measurement window.
func NewCycleModel(fm *fault.Map) *CycleModel {
	return &CycleModel{FM: fm, Cfg: DefaultThroughputConfig()}
}

// ModelName implements LatencyModel.
func (m *CycleModel) ModelName() string { return ModelNameCycle }

// Grid implements LatencyModel.
func (m *CycleModel) Grid() geom.Grid { return m.FM.Grid() }

func (m *CycleModel) cfg() ThroughputConfig {
	cfg := m.Cfg
	if cfg.Sim.FIFODepth == 0 && cfg.Sim.LinkLatency == 0 {
		cfg.Sim = DefaultSimConfig()
	}
	if cfg.WarmupCycles == 0 && cfg.MeasureCycles == 0 {
		cfg.WarmupCycles, cfg.MeasureCycles = 500, 1500
	}
	return cfg
}

// PairLatency measures the average latency of probe packets injected
// src->dst into a simulation carrying seeded uniform background
// traffic at the given per-tile rate. ok is false when no probe is
// delivered (fault-blocked DoR path).
func (m *CycleModel) PairLatency(net Network, src, dst geom.Coord, rate float64) (float64, bool) {
	if err := validateModelPair(m.FM.Grid(), src, dst); err != nil {
		return 0, false
	}
	probes := m.ProbePackets
	if probes <= 0 {
		probes = 8
	}
	cfg := m.cfg()
	var topo Topology
	if cfg.Topology != "" {
		var err error
		if topo, err = NewTopology(cfg.Topology, m.FM.Grid()); err != nil {
			return 0, false
		}
	}
	s, err := NewSimTopology(m.FM, cfg.Sim, topo)
	if err != nil {
		return 0, false
	}
	healthy := m.FM.HealthyCoords()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const probeTag = 1<<32 - 1
	var delivered int
	var latency int64
	s.OnDeliver = func(p Packet) {
		if p.Tag == probeTag {
			delivered++
			latency += p.Latency()
		}
	}
	// Warm the network into steady state, then space the probes out so
	// each samples an independent congestion snapshot.
	g := m.FM.Grid()
	gap := 2 * (g.W + g.H) * (1 + cfg.Sim.LinkLatency)
	total := cfg.WarmupCycles + probes*gap
	injected := 0
	for cyc := 0; cyc < total; cyc++ {
		if rate > 0 {
			injectBackground(s, healthy, rate, rng)
		}
		if cyc >= cfg.WarmupCycles && (cyc-cfg.WarmupCycles)%gap == 0 && injected < probes {
			// Probe injection can be refused under backpressure; skipped
			// probes just shrink the sample.
			if _, err := s.Inject(net, src, dst, Request, probeTag, 0); err == nil {
				injected++
			}
		}
		s.Step()
	}
	// Drain in-flight probes (bounded: background injection stopped).
	s.RunUntilDrained(8 * gap * probes)
	if delivered == 0 {
		return 0, false
	}
	return float64(latency) / float64(delivered), true
}

// SaturationRate measures the delivered-throughput plateau by offering
// well past the topology's bisection-style bound.
func (m *CycleModel) SaturationRate() float64 {
	offered := 1.5 * IdealSaturation(m.Cfg.Topology, m.FM.Grid())
	if offered > 1 {
		offered = 1
	}
	pts, err := MeasureThroughput(m.FM, m.cfg(), []float64{offered})
	if err != nil || len(pts) == 0 {
		return 0
	}
	return pts[0].DeliveredRate
}

// ThroughputCurve implements LatencyModel; rate points are measured
// one at a time so cancellation lands between rates and per-rate
// results match the batched sweep exactly.
func (m *CycleModel) ThroughputCurve(ctx context.Context, rates []float64) ([]ThroughputPoint, error) {
	out := make([]ThroughputPoint, 0, len(rates))
	for _, rate := range rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pts, err := MeasureThroughput(m.FM, m.cfg(), []float64{rate})
		if err != nil {
			return nil, err
		}
		out = append(out, pts[0])
	}
	return out, nil
}

// injectBackground offers one cycle of uniform random traffic, the
// same per-tile Bernoulli process MeasureThroughput drives.
func injectBackground(s *Sim, healthy []geom.Coord, rate float64, rng *rand.Rand) {
	for _, src := range healthy {
		if rng.Float64() >= rate {
			continue
		}
		dst := healthy[rng.Intn(len(healthy))]
		if dst == src {
			continue
		}
		s.Inject(Network(rng.Intn(2)), src, dst, Request, 0, 0)
	}
}

// validateModelPair is a shared guard for PairLatency implementations.
func validateModelPair(g geom.Grid, src, dst geom.Coord) error {
	if err := validatePair(g, src, dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("noc: pair latency needs distinct endpoints, got %v", src)
	}
	return nil
}
