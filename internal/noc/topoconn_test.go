package noc

import (
	"math/rand"
	"testing"

	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// TestTopoAnalyzerMatchesMeshAnalyzer cross-validates the route-walking
// connectivity relation against the prefix-sum analyzer: on the mesh
// topology both describe the same DoR routes, so every PathClear answer
// and the AllPairs aggregate must be identical.
func TestTopoAnalyzerMatchesMeshAnalyzer(t *testing.T) {
	g := geom.NewGrid(12, 12)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		fm := fault.Random(g, trial*3, rng)
		ref := NewAnalyzer(fm)
		topo, err := NewTopology(TopoMesh, g)
		if err != nil {
			t.Fatal(err)
		}
		ta := NewTopoAnalyzer(topo, fm)
		g.All(func(s geom.Coord) {
			g.All(func(d geom.Coord) {
				for _, net := range []Network{XY, YX} {
					if got, want := ta.PathClear(net, s, d), ref.PathClear(net, s, d); got != want {
						t.Fatalf("trial %d: PathClear(%v, %v, %v) = %v, analyzer says %v", trial, net, s, d, got, want)
					}
				}
			})
		})
		if got, want := ta.AllPairs(), ref.AllPairs(); got != want {
			t.Fatalf("trial %d: AllPairs %+v vs analyzer %+v", trial, got, want)
		}
	}
}

// TestTopoAnalyzerMatchesEngine pins the analyzer's fault semantics to
// the cycle engine: a pair is deliverable in an otherwise idle network
// exactly when the analyzer calls its path clear.
func TestTopoAnalyzerMatchesEngine(t *testing.T) {
	g := geom.NewGrid(8, 8)
	for _, name := range TopologyNames() {
		fm := fault.Random(g, 6, rand.New(rand.NewSource(31)))
		topo, err := NewTopology(name, g)
		if err != nil {
			t.Fatal(err)
		}
		ta := NewTopoAnalyzer(topo, fm)
		healthy := fm.HealthyCoords()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			src := healthy[rng.Intn(len(healthy))]
			dst := healthy[rng.Intn(len(healthy))]
			if src == dst {
				continue
			}
			net := Network(i % 2)
			s, err := NewSimTopology(fm, DefaultSimConfig(), topo)
			if err != nil {
				t.Fatal(err)
			}
			delivered := false
			s.OnDeliver = func(Packet) { delivered = true }
			if _, err := s.Inject(net, src, dst, Request, 0, 0); err != nil {
				t.Fatal(err)
			}
			s.RunUntilDrained(10_000)
			if want := ta.PathClear(net, src, dst); delivered != want {
				t.Errorf("%s %v %v->%v: engine delivered=%v, analyzer clear=%v", name, net, src, dst, delivered, want)
			}
		}
	}
}

// TestTopoFig6Sweep checks the generalized Fig. 6 sweep: the mesh path
// is bit-identical to the prefix-sum sweep, every topology's dual curve
// sits at or below its single curve, and a fault-free point has no
// disconnections.
func TestTopoFig6Sweep(t *testing.T) {
	g := geom.NewGrid(10, 10)
	counts := []int{0, 2, 5}
	const trials, seed = 4, 99
	ref := Fig6SweepWorkers(g, counts, trials, seed, 0)
	for _, name := range TopologyNames() {
		pts, err := TopoFig6Sweep(name, g, counts, trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(counts) {
			t.Fatalf("%s: %d points, want %d", name, len(pts), len(counts))
		}
		for i, p := range pts {
			if name == TopoMesh && p != ref[i] {
				t.Errorf("mesh point %d: %+v differs from Fig6Sweep %+v", i, p, ref[i])
			}
			if p.PctDual.Mean > p.PctSingle.Mean+1e-12 {
				t.Errorf("%s faults=%d: dual %.4f%% above single %.4f%%", name, p.Faults, p.PctDual.Mean, p.PctSingle.Mean)
			}
			if p.Faults == 0 && (p.PctSingle.Mean != 0 || p.PctDual.Mean != 0) {
				t.Errorf("%s: fault-free map has disconnections (%.4f%% / %.4f%%)", name, p.PctSingle.Mean, p.PctDual.Mean)
			}
		}
	}
	if _, err := TopoFig6Sweep("torus", g, counts, trials, seed); err == nil {
		t.Error("unknown topology accepted")
	}
}
