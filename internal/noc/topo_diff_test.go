package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// Engine tests on the non-mesh topologies. The mesh engine is pinned to
// the verbatim pre-optimisation engine in refsim_test.go; the non-mesh
// topologies are pinned by the every-step invariant checker
// (invariants_test.go) and by the fork and port-down differentials
// below.

// newTopoSim builds a simulator of the named topology over a seeded
// random fault map.
func newTopoSim(t *testing.T, name string, s scenario, cfg SimConfig) *Sim {
	t.Helper()
	topo, err := NewTopology(name, s.grid)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimTopology(fault.Random(s.grid, s.faults, rand.New(rand.NewSource(s.seed))), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	sim.RetainDelivered = true
	return sim
}

// newTopologies are the non-mesh topologies (the mesh has its own
// differential suite in refsim_test.go).
var newTopologies = []string{TopoCMesh, TopoExpress, TopoVertical}

// TestTopoPortDownDifferential downs and raises topology-specific link
// ports (express lanes, CMesh spokes, vertical links) mid-run via
// SetPortDown — beyond the mesh-direction flaps runScenario drives. A
// run forked mid-outage must track the unforked run bit for bit, and
// the invariants must hold after every step of both.
func TestTopoPortDownDifferential(t *testing.T) {
	for _, name := range newTopologies {
		g := geom.NewGrid(12, 12)
		topoA, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(forkAt int) (SimStats, []Packet) {
			fm := fault.NewMap(g)
			sim, err := NewSimTopology(fm, DefaultSimConfig(), topoA)
			if err != nil {
				t.Fatal(err)
			}
			sim.RetainDelivered = true
			rng := rand.New(rand.NewSource(1707))
			var downs []struct {
				c geom.Coord
				p int
			}
			for cyc := 0; cyc < 500; cyc++ {
				if cyc == forkAt {
					sim = sim.Fork(fm.Clone())
				}
				if cyc%29 == 11 {
					c := geom.C(rng.Intn(g.W), rng.Intn(g.H))
					p := rng.Intn(sim.Topology().Ports() - 1)
					sim.SetPortDown(c, p, true)
					downs = append(downs, struct {
						c geom.Coord
						p int
					}{c, p})
				}
				if cyc%41 == 23 && len(downs) > 0 {
					d := downs[0]
					downs = downs[1:]
					sim.SetPortDown(d.c, d.p, false)
				}
				src := geom.C(rng.Intn(g.W), rng.Intn(g.H))
				dst := geom.C(rng.Intn(g.W), rng.Intn(g.H))
				if src != dst {
					sim.Inject(Network(rng.Intn(2)), src, dst, Request, uint32(cyc), uint64(cyc))
				}
				sim.Step()
				if err := sim.checkInvariants(); err != nil {
					t.Fatalf("%s forkAt=%d cycle %d: %v", name, forkAt, sim.Cycle(), err)
				}
			}
			for _, d := range downs {
				sim.SetPortDown(d.c, d.p, false)
			}
			if err := sim.RunUntilDrained(20000); err != nil {
				t.Fatalf("%s forkAt=%d: %v", name, forkAt, err)
			}
			return sim.Stats(), sim.Delivered()
		}
		refStats, refPkts := run(-1)
		if refStats.Delivered == 0 {
			t.Fatalf("%s: port-down scenario delivered nothing", name)
		}
		gotStats, gotPkts := run(250)
		if gotStats != refStats {
			t.Errorf("%s: stats diverge:\n  forked   %+v\n  unforked %+v", name, gotStats, refStats)
		}
		if len(gotPkts) != len(refPkts) {
			t.Fatalf("%s: delivered lengths diverge: %d vs %d", name, len(gotPkts), len(refPkts))
		}
		for i := range gotPkts {
			if gotPkts[i] != refPkts[i] {
				t.Fatalf("%s: delivered packet %d diverges", name, i)
			}
		}
	}
}

// TestTopoForkBitIdentical pins Fork on non-mesh topologies: a fork
// taken mid-run must finish bit-identically to its original (stats and
// delivered stream), including the topology-sized round-robin and FIFO
// state — the regression this guards is a fork sharing or truncating
// the per-port slabs.
func TestTopoForkBitIdentical(t *testing.T) {
	for _, name := range newTopologies {
		g := geom.NewGrid(10, 10)
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		fm := fault.Random(g, 4, rand.New(rand.NewSource(1809)))
		sim, err := NewSimTopology(fm, DefaultSimConfig(), topo)
		if err != nil {
			t.Fatal(err)
		}
		sim.RetainDelivered = true
		rng := rand.New(rand.NewSource(1901))
		inject := func(s *Sim, r *rand.Rand, cyc int) {
			src := geom.C(r.Intn(g.W), r.Intn(g.H))
			dst := geom.C(r.Intn(g.W), r.Intn(g.H))
			if src != dst && fm.Healthy(src) && fm.Healthy(dst) {
				s.Inject(Network(r.Intn(2)), src, dst, Request, uint32(cyc), uint64(cyc)*7)
			}
		}
		for cyc := 0; cyc < 300; cyc++ {
			inject(sim, rng, cyc)
			sim.Step()
		}
		fork := sim.Fork(fm.Clone())
		// Drive original and fork through the identical suffix.
		suffix := rng.Int63()
		rngA, rngB := rand.New(rand.NewSource(suffix)), rand.New(rand.NewSource(suffix))
		for cyc := 300; cyc < 500; cyc++ {
			inject(sim, rngA, cyc)
			inject(fork, rngB, cyc)
			sim.Step()
			fork.Step()
		}
		if err := sim.RunUntilDrained(20000); err != nil {
			t.Fatal(err)
		}
		if err := fork.RunUntilDrained(20000); err != nil {
			t.Fatal(err)
		}
		if sim.Stats() != fork.Stats() {
			t.Errorf("%s: fork stats diverge:\n  fork     %+v\n  original %+v", name, fork.Stats(), sim.Stats())
		}
		a, b := sim.Delivered(), fork.Delivered()
		if len(a) != len(b) {
			t.Fatalf("%s: fork delivered lengths diverge: %d vs %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: fork delivered packet %d diverges:\n  fork     %+v\n  original %+v", name, i, b[i], a[i])
			}
		}
	}
}
