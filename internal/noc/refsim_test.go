package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// This file pins the optimized cycle engine (ring-buffer FIFOs,
// incremental occupancy counters, reusable scratch, O(1) Drained) to
// the pre-optimization reference engine, copied here verbatim: per-cycle
// map allocations, re-sliced []Packet FIFOs, O(flights) credit scans and
// full-network drain scans. Both engines are driven through identical
// scenarios — uniform traffic, chaos (kills, link flaps, bit errors,
// relay forwards), adaptive routing, backpressure — and must produce
// bit-identical SimStats, delivered-packet streams and cycle counts.

// refRouter is the old slice-FIFO router.
type refRouter struct {
	at   geom.Coord
	in   [numPorts][]Packet
	rrAt [numPorts]int
}

// refMeshNet is the old per-network state.
type refMeshNet struct {
	net     Network
	routers []*refRouter
	flights []inFlight
}

// refSim is the pre-optimization engine. Its stepNet is a line-for-line
// copy of the old Sim.stepNet, kept as the behavioral oracle.
type refSim struct {
	grid geom.Grid
	fm   *fault.Map
	cfg  SimConfig
	nets [2]*refMeshNet

	Policy RoutingPolicy

	cycle    int64
	nextID   uint64
	stats    SimStats
	linkDown []bool

	OnDeliver func(Packet)
	delivered []Packet
}

func newRefSim(fm *fault.Map, cfg SimConfig) *refSim {
	g := fm.Grid()
	s := &refSim{grid: g, fm: fm, cfg: cfg, Policy: DoRPolicy{}}
	s.linkDown = make([]bool, g.Size()*geom.NumDirs)
	for n := range s.nets {
		mn := &refMeshNet{net: Network(n), routers: make([]*refRouter, g.Size())}
		g.All(func(c geom.Coord) {
			if fm.Healthy(c) {
				mn.routers[g.Index(c)] = &refRouter{at: c}
			}
		})
		s.nets[n] = mn
	}
	return s
}

func (s *refSim) Cycle() int64    { return s.cycle }
func (s *refSim) Stats() SimStats { return s.stats }

func (s *refSim) Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error) {
	if err := validatePair(s.grid, src, dst); err != nil {
		return 0, err
	}
	if s.fm.Faulty(src) {
		return 0, fmt.Errorf("noc: cannot inject from faulty tile %v", src)
	}
	r := s.nets[net].routers[s.grid.Index(src)]
	if r == nil {
		return 0, fmt.Errorf("noc: no router at source tile %v (killed at runtime)", src)
	}
	if len(r.in[portLocal]) >= s.cfg.FIFODepth {
		return 0, ErrBackpressure
	}
	s.nextID++
	p := Packet{
		ID: s.nextID, Kind: kind, Net: net, Src: src, Dst: dst,
		Tag: tag, Payload: payload, InjectedAt: s.cycle,
	}
	r.in[portLocal] = append(r.in[portLocal], p)
	s.stats.Injected++
	return p.ID, nil
}

func (s *refSim) Forward(net Network, at, newDst geom.Coord, p Packet) error {
	if err := validatePair(s.grid, at, newDst); err != nil {
		return err
	}
	if s.fm.Faulty(at) {
		return fmt.Errorf("noc: cannot forward from faulty tile %v", at)
	}
	r := s.nets[net].routers[s.grid.Index(at)]
	if r == nil {
		return fmt.Errorf("noc: no router at relay tile %v", at)
	}
	if len(r.in[portLocal]) >= s.cfg.FIFODepth {
		return ErrBackpressure
	}
	p.Net = net
	p.Dst = newDst
	r.in[portLocal] = append(r.in[portLocal], p)
	s.stats.Forwarded++
	return nil
}

func (s *refSim) KillRouter(c geom.Coord) int {
	if !s.grid.In(c) {
		return 0
	}
	i := s.grid.Index(c)
	dropped := 0
	killed := false
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		killed = true
		for p := 0; p < numPorts; p++ {
			dropped += len(r.in[p])
		}
		mn.routers[i] = nil
	}
	if killed {
		s.stats.RoutersKilled++
		s.stats.Dropped += dropped
		s.stats.DroppedQueued += dropped
	}
	return dropped
}

func (s *refSim) SetLinkDown(c geom.Coord, d geom.Dir, down bool) {
	if !s.grid.In(c) {
		return
	}
	s.linkDown[s.grid.Index(c)*geom.NumDirs+int(d)] = down
	if far := c.Step(d); s.grid.In(far) {
		s.linkDown[s.grid.Index(far)*geom.NumDirs+int(d.Opposite())] = down
	}
}

func (s *refSim) CorruptPayload(c geom.Coord, mask uint64) bool {
	if !s.grid.In(c) || mask == 0 {
		return false
	}
	i := s.grid.Index(c)
	for _, mn := range s.nets {
		r := mn.routers[i]
		if r == nil {
			continue
		}
		for p := 0; p < numPorts; p++ {
			if len(r.in[p]) > 0 {
				r.in[p][0].Payload ^= mask
				s.stats.BitErrors++
				return true
			}
		}
	}
	return false
}

func (s *refSim) Step() {
	s.cycle++
	for _, mn := range s.nets {
		s.stepNet(mn)
	}
}

// stepNet is the old allocating switch-allocation loop, unchanged.
func (s *refSim) stepNet(mn *refMeshNet) {
	g := s.grid
	remaining := mn.flights[:0]
	for _, f := range mn.flights {
		if f.arrive > s.cycle {
			remaining = append(remaining, f)
			continue
		}
		r := mn.routers[g.Index(f.dstTile)]
		if r == nil {
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			continue
		}
		r.in[f.dstPort] = append(r.in[f.dstPort], f.pkt)
	}
	mn.flights = remaining

	type grant struct {
		r       *refRouter
		inPort  int
		outPort int
	}
	var grants []grant
	reserved := map[[2]int]int{}
	spaceFor := func(tile geom.Coord, port int) bool {
		r := mn.routers[g.Index(tile)]
		if r == nil {
			return true
		}
		key := [2]int{g.Index(tile), port}
		inQueue := len(r.in[port])
		inAir := 0
		for _, f := range mn.flights {
			if f.dstTile == tile && f.dstPort == port {
				inAir++
			}
		}
		return inQueue+inAir+reserved[key] < s.cfg.FIFODepth
	}
	candidates := func(p Packet, at geom.Coord, inPort int) []int {
		buf := make([]int, numPorts)
		n := s.Policy.Candidates(mn.net, &p, at, inPort, buf)
		return buf[:n]
	}
	for _, r := range mn.routers {
		if r == nil {
			continue
		}
		var taken [numPorts]bool
		for out := 0; out < numPorts; out++ {
			if out != portLocal && s.linkDown[g.Index(r.at)*geom.NumDirs+out] {
				continue
			}
			for k := 1; k <= numPorts; k++ {
				inPort := (r.rrAt[out] + k) % numPorts
				if taken[inPort] {
					continue
				}
				q := r.in[inPort]
				if len(q) == 0 {
					continue
				}
				head := q[0]
				if !wantsPort(candidates(head, r.at, inPort), out) {
					continue
				}
				if out == portLocal {
					grants = append(grants, grant{r, inPort, out})
					r.rrAt[out] = inPort
					taken[inPort] = true
					break
				}
				nextTile := r.at.Step(dirOfPort(out))
				if !s.grid.In(nextTile) {
					grants = append(grants, grant{r, inPort, out})
					r.rrAt[out] = inPort
					taken[inPort] = true
					break
				}
				if !spaceFor(nextTile, int(dirOfPort(out).Opposite())) {
					continue
				}
				key := [2]int{g.Index(nextTile), int(dirOfPort(out).Opposite())}
				reserved[key]++
				grants = append(grants, grant{r, inPort, out})
				r.rrAt[out] = inPort
				taken[inPort] = true
				break
			}
		}
	}

	for _, gr := range grants {
		pkt := gr.r.in[gr.inPort][0]
		gr.r.in[gr.inPort] = gr.r.in[gr.inPort][1:]
		if gr.outPort == portLocal {
			pkt.DeliveredAt = s.cycle
			s.stats.Delivered++
			s.stats.TotalLatency += pkt.Latency()
			s.stats.TotalHops += pkt.Hops
			if pkt.Latency() > s.stats.MaxLatency {
				s.stats.MaxLatency = pkt.Latency()
			}
			s.delivered = append(s.delivered, pkt)
			if s.OnDeliver != nil {
				s.OnDeliver(pkt)
			}
			continue
		}
		next := gr.r.at.Step(dirOfPort(gr.outPort))
		if !s.grid.In(next) {
			s.stats.Dropped++
			s.stats.DroppedInFlight++
			continue
		}
		pkt.Hops++
		mn.flights = append(mn.flights, inFlight{
			pkt:     pkt,
			arrive:  s.cycle + int64(s.cfg.LinkLatency),
			dstTile: next,
			dstPort: int(dirOfPort(gr.outPort).Opposite()),
		})
	}
}

// wantsPort reports whether out appears in the candidate list.
func wantsPort(candidates []int, out int) bool {
	for _, c := range candidates {
		if c == out {
			return true
		}
	}
	return false
}

func (s *refSim) Drained() bool {
	for _, mn := range s.nets {
		if len(mn.flights) > 0 {
			return false
		}
		for _, r := range mn.routers {
			if r == nil {
				continue
			}
			for p := 0; p < numPorts; p++ {
				if len(r.in[p]) > 0 {
					return false
				}
			}
		}
	}
	return true
}

// engine is the surface both simulators expose to the scenario driver.
type engine interface {
	Inject(net Network, src, dst geom.Coord, kind Kind, tag uint32, payload uint64) (uint64, error)
	Forward(net Network, at, newDst geom.Coord, p Packet) error
	KillRouter(c geom.Coord) int
	SetLinkDown(c geom.Coord, d geom.Dir, down bool)
	CorruptPayload(c geom.Coord, mask uint64) bool
	Step()
	Drained() bool
	Cycle() int64
	Stats() SimStats
}

// scenario parametrizes one lockstep run.
type scenario struct {
	grid        geom.Grid
	faults      int
	seed        int64
	cycles      int // injection cycles before draining
	injectProb  float64
	oddEven     bool
	chaos       bool // kills, link flaps, bit errors
	forwardMod  uint32
	fifoDepth   int
	checkLiveFn func(t *testing.T, e engine) // optional per-step invariant
}

// runScenario drives one engine through the scenario and returns its
// outcome. Every random decision comes from a fresh rng with the
// scenario seed, so both engines see byte-identical event sequences.
func runScenario(t *testing.T, s scenario, e engine, retain func() []Packet) (SimStats, []Packet, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	healthy := make([]geom.Coord, 0, s.grid.Size())
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	s.grid.All(func(c geom.Coord) {
		if fm.Healthy(c) {
			healthy = append(healthy, c)
		}
	})
	killed := map[geom.Coord]bool{}
	forwarded := map[uint64]bool{}
	var pendingFwd []Packet
	injected := 0
	for cyc := 0; cyc < s.cycles; cyc++ {
		// Chaos events at deterministic points.
		if s.chaos {
			if cyc%37 == 19 {
				victim := healthy[rng.Intn(len(healthy))]
				killed[victim] = true
				e.KillRouter(victim)
			}
			if cyc%23 == 7 {
				c := healthy[rng.Intn(len(healthy))]
				e.SetLinkDown(c, geom.Dir(rng.Intn(geom.NumDirs)), true)
			}
			if cyc%23 == 15 {
				c := healthy[rng.Intn(len(healthy))]
				e.SetLinkDown(c, geom.Dir(rng.Intn(geom.NumDirs)), false)
			}
			if cyc%11 == 5 {
				e.CorruptPayload(healthy[rng.Intn(len(healthy))], uint64(rng.Intn(255)+1))
			}
		}
		if rng.Float64() < s.injectProb {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			net := Network(rng.Intn(2))
			if !killed[src] {
				if _, err := e.Inject(net, src, dst, Request, uint32(cyc), uint64(cyc)*3); err == nil {
					injected++
				}
			}
		}
		// Relay a slice of delivered requests onward, as the machine's
		// kernel does for detours (retry parked packets on backpressure).
		retryFwd := pendingFwd[:0]
		for _, p := range pendingFwd {
			if killed[p.Dst] || s.fmFaulty(fm, p.Dst) {
				continue
			}
			relay := healthy[(int(p.ID)*7)%len(healthy)]
			if err := e.Forward(p.Net.Complement(), p.Dst, relay, p); err == ErrBackpressure {
				retryFwd = append(retryFwd, p)
			}
		}
		pendingFwd = retryFwd
		e.Step()
		if s.forwardMod > 0 {
			for _, p := range retain() {
				if p.Kind == Request && p.Tag%s.forwardMod == 0 && !forwarded[p.ID] {
					forwarded[p.ID] = true
					pendingFwd = append(pendingFwd, p)
				}
			}
		}
		if s.checkLiveFn != nil {
			s.checkLiveFn(t, e)
		}
	}
	// Chaos runs can wedge traffic behind down links; raise them all
	// (identically on both engines) so the drain phase terminates.
	if s.chaos {
		s.grid.All(func(c geom.Coord) {
			for d := 0; d < geom.NumDirs; d++ {
				e.SetLinkDown(c, geom.Dir(d), false)
			}
		})
	}
	// Drain, stepping manually so both engines count identical cycles.
	for i := 0; i < 20000 && !e.Drained(); i++ {
		e.Step()
		if s.checkLiveFn != nil {
			s.checkLiveFn(t, e)
		}
	}
	if !e.Drained() {
		t.Fatalf("engine %T did not drain", e)
	}
	return e.Stats(), retain(), e.Cycle()
}

func (s scenario) fmFaulty(fm *fault.Map, c geom.Coord) bool { return fm.Faulty(c) }

// diffEngines runs the scenario on the optimized and reference engines
// and requires bit-identical stats, delivered streams and cycle counts.
func diffEngines(t *testing.T, s scenario) {
	t.Helper()
	if s.fifoDepth == 0 {
		s.fifoDepth = DefaultSimConfig().FIFODepth
	}
	cfg := SimConfig{FIFODepth: s.fifoDepth, LinkLatency: DefaultSimConfig().LinkLatency}

	fmOpt := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	opt, err := NewSim(fmOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt.RetainDelivered = true
	if s.oddEven {
		opt.Policy = OddEvenPolicy{}
	}
	optStats, optPkts, optCycles := runScenario(t, s, opt, opt.Delivered)

	fmRef := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	ref := newRefSim(fmRef, cfg)
	if s.oddEven {
		ref.Policy = OddEvenPolicy{}
	}
	refStats, refPkts, refCycles := runScenario(t, s, ref, func() []Packet { return ref.delivered })

	if optStats != refStats {
		t.Errorf("stats diverge:\n  optimized %+v\n  reference %+v", optStats, refStats)
	}
	if optCycles != refCycles {
		t.Errorf("cycle counts diverge: optimized %d, reference %d", optCycles, refCycles)
	}
	if len(optPkts) != len(refPkts) {
		t.Fatalf("delivered streams diverge in length: optimized %d, reference %d", len(optPkts), len(refPkts))
	}
	for i := range optPkts {
		if optPkts[i] != refPkts[i] {
			t.Fatalf("delivered packet %d diverges:\n  optimized %+v\n  reference %+v", i, optPkts[i], refPkts[i])
		}
	}
}

func TestEngineDifferentialUniform(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(12, 12), faults: 0, seed: 101,
		cycles: 1500, injectProb: 0.9,
	})
}

func TestEngineDifferentialFaultyMap(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(10, 10), faults: 7, seed: 202,
		cycles: 1200, injectProb: 0.8,
	})
}

func TestEngineDifferentialChaos(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(10, 10), faults: 3, seed: 303,
		cycles: 900, injectProb: 0.85, chaos: true, forwardMod: 4,
	})
}

func TestEngineDifferentialOddEven(t *testing.T) {
	diffEngines(t, scenario{
		grid: geom.NewGrid(9, 9), faults: 0, seed: 404,
		cycles: 1000, injectProb: 0.9, oddEven: true,
	})
}

func TestEngineDifferentialBackpressure(t *testing.T) {
	// Depth-1 FIFOs under near-saturating load: the credit path and
	// ErrBackpressure decisions must agree exactly.
	diffEngines(t, scenario{
		grid: geom.NewGrid(6, 6), faults: 0, seed: 505,
		cycles: 2000, injectProb: 1.0, fifoDepth: 1,
	})
}

// TestDrainedCounterMatchesScan cross-validates the O(1) live-packet
// counter against the full-network scan it replaced, on every step of a
// chaos run (kills and drops are exactly where the accounting could
// slip).
func TestDrainedCounterMatchesScan(t *testing.T) {
	check := func(t *testing.T, e engine) {
		t.Helper()
		s := e.(*Sim)
		if s.Drained() != s.drainedScan() {
			t.Fatalf("cycle %d: Drained()=%v but scan says %v (live=%d)",
				s.Cycle(), s.Drained(), s.drainedScan(), s.live)
		}
	}
	s := scenario{
		grid: geom.NewGrid(8, 8), faults: 2, seed: 606,
		cycles: 600, injectProb: 0.9, chaos: true, forwardMod: 3,
		checkLiveFn: check,
	}
	fm := fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed)))
	sim, err := NewSim(fm, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.RetainDelivered = true
	runScenario(t, s, sim, sim.Delivered)
}
