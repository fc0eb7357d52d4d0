package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// checkInvariants recomputes the engine's incrementally maintained
// bookkeeping from a full scan and reports the first disagreement. It
// must be called between cycles. It asserts:
//
//   - the active bit of a router is set exactly when the router exists
//     and its FIFOs hold a packet (and its queued count is their sum);
//   - packet conservation: injected + forwarded = delivered + dropped +
//     live, where live is recounted from FIFOs and flights;
//   - per (tile, port) of a live router, 0 <= len + inAir + reserved <=
//     FIFODepth, with inAir recounted from the flight list.
func (s *Sim) checkInvariants() error {
	np := s.np
	live := 0
	for _, mn := range s.nets {
		live += len(mn.flights)
		inAir := make([]int32, len(mn.inAir))
		for _, f := range mn.flights {
			inAir[s.grid.Index(f.dstTile)*np+f.dstPort]++
		}
		for i := len(mn.routers); i < len(mn.active)*64; i++ {
			if mn.active[i>>6]>>(i&63)&1 != 0 {
				return fmt.Errorf("%v: active bit %d set beyond the grid", mn.net, i)
			}
		}
		for i, r := range mn.routers {
			queued := 0
			if r != nil {
				for p := 0; p < np; p++ {
					queued += r.in[p].len()
				}
				if int(r.queued) != queued {
					return fmt.Errorf("%v router %d: queued count %d, FIFOs hold %d", mn.net, i, r.queued, queued)
				}
			}
			live += queued
			active := mn.active[i>>6]>>(i&63)&1 != 0
			if want := r != nil && queued > 0; active != want {
				return fmt.Errorf("%v router %d: active bit %v, want %v (exists %v, queued %d)",
					mn.net, i, active, want, r != nil, queued)
			}
			for p := 0; p < np; p++ {
				slot := i*np + p
				if mn.inAir[slot] != inAir[slot] {
					return fmt.Errorf("%v (%d, port %d): inAir counter %d, flights say %d", mn.net, i, p, mn.inAir[slot], inAir[slot])
				}
				if r == nil {
					continue
				}
				occ := r.in[p].len() + int(mn.inAir[slot]) + int(mn.reserved[slot])
				if occ < 0 || occ > s.cfg.FIFODepth {
					return fmt.Errorf("%v (%d, port %d): occupancy %d outside [0, %d]", mn.net, i, p, occ, s.cfg.FIFODepth)
				}
			}
		}
	}
	st := s.stats
	if in, out := st.Injected+st.Forwarded, st.Delivered+st.Dropped+live; in != out {
		return fmt.Errorf("conservation: injected %d + forwarded %d != delivered %d + dropped %d + live %d",
			st.Injected, st.Forwarded, st.Delivered, st.Dropped, live)
	}
	if live != s.live {
		return fmt.Errorf("live counter %d, scan finds %d", s.live, live)
	}
	return nil
}

func invariantCheck(t *testing.T, e engine) {
	t.Helper()
	s := e.(*Sim)
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", s.Cycle(), err)
	}
}

// TestInvariantsUniformAllTopologies checks the invariants after every
// step of uniform traffic on a healthy and on a faulty map, on every
// topology.
func TestInvariantsUniformAllTopologies(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, faults := range []int{0, 7} {
			s := scenario{
				grid: geom.NewGrid(12, 12), faults: faults, seed: 2001,
				cycles: 400, injectProb: 0.9,
				checkLiveFn: invariantCheck,
			}
			sim := newTopoSim(t, name, s, DefaultSimConfig())
			runScenario(t, s, sim, sim.Delivered)
			if sim.Stats().Delivered == 0 {
				t.Fatalf("%s faults=%d: delivered nothing", name, faults)
			}
		}
	}
}

// TestInvariantsChaosAllTopologies checks the invariants after every
// step of a chaos run (runtime router kills, link flaps, bit errors,
// relay forwards) on every topology.
func TestInvariantsChaosAllTopologies(t *testing.T) {
	for _, name := range TopologyNames() {
		s := scenario{
			grid: geom.NewGrid(10, 10), faults: 3, seed: 2101,
			cycles: 400, injectProb: 0.9, chaos: true, forwardMod: 3,
			checkLiveFn: invariantCheck,
		}
		sim := newTopoSim(t, name, s, DefaultSimConfig())
		runScenario(t, s, sim, sim.Delivered)
	}
}

// TestInvariantsBackpressureAllTopologies runs depth-1 FIFOs at
// saturating load, where the credit bound is tight every cycle.
func TestInvariantsBackpressureAllTopologies(t *testing.T) {
	for _, name := range TopologyNames() {
		s := scenario{
			grid: geom.NewGrid(11, 10), seed: 2202,
			cycles: 300, injectProb: 1.0, fifoDepth: 1,
			checkLiveFn: invariantCheck,
		}
		sim := newTopoSim(t, name, s, SimConfig{FIFODepth: 1, LinkLatency: DefaultSimConfig().LinkLatency})
		runScenario(t, s, sim, sim.Delivered)
	}
}

// TestInvariantsAcrossFork downs topology-specific ports and kills
// routers mid-run, forks, and keeps checking the original and the fork
// after every step until both drain. Each topology runs under several
// port-down and kill schedules.
func TestInvariantsAcrossFork(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, sched := range []int{1, 2, 4, 7} {
			g := geom.NewGrid(8, 8)
			topo, err := NewTopology(name, g)
			if err != nil {
				t.Fatal(err)
			}
			fm := fault.NewMap(g)
			sim, err := NewSimTopology(fm, DefaultSimConfig(), topo)
			if err != nil {
				t.Fatal(err)
			}
			check := func(s *Sim, what string) {
				t.Helper()
				if err := s.checkInvariants(); err != nil {
					t.Fatalf("%s sched=%d %s cycle %d: %v", name, sched, what, s.Cycle(), err)
				}
			}
			rng := rand.New(rand.NewSource(int64(2303 + sched)))
			drive := &nocTrafficDriver{rng: rand.New(rand.NewSource(2309)), grid: g}
			for cyc := 0; cyc < 200; cyc++ {
				if cyc%31 == 13 {
					sim.SetPortDown(geom.C(rng.Intn(g.W), rng.Intn(g.H)), rng.Intn(topo.Ports()-1), true)
				}
				if cyc%67 == 41 {
					c := geom.C(rng.Intn(g.W), rng.Intn(g.H))
					sim.KillRouter(c)
					fm.MarkFaulty(c)
				}
				drive.tick(t, sim)
				sim.Step()
				check(sim, "warm")
			}
			fork := sim.Fork(fm.Clone())
			check(fork, "fork")
			for cyc := 0; cyc < 100; cyc++ {
				drive.tick(t, sim)
				drive.tick(t, fork)
				sim.Step()
				fork.Step()
				check(sim, "original")
				check(fork, "fork")
			}
			for _, s := range []*Sim{sim, fork} {
				g.All(func(c geom.Coord) {
					for p := 0; p < topo.Ports()-1; p++ {
						s.SetPortDown(c, p, false)
					}
				})
				for i := 0; i < 5000 && !s.Drained(); i++ {
					s.Step()
					check(s, "drain")
				}
				if !s.Drained() {
					t.Fatalf("%s sched=%d: did not drain: %s", name, sched, s.CongestionReport(4))
				}
			}
		}
	}
}
