package main

import (
	"fmt"
	"math/rand"
	"time"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/noc"
	"waferscale/internal/sim"
	"waferscale/internal/workload"
)

// graph-sim: one goroutine runs a seeded list of simulation jobs on 8x8
// machines, one after another, and verifies each against its pure-Go
// reference. The NoC is sparse here (well under one packet in flight per
// router), so engine work that scales with idle routers dominates.

const gsSide = 8

// The job list has a fixed shape and order, so every seed does
// comparable work: one transformer block of gsTokens x gsDim with
// gsExperts experts per (topology, placement) pair, plus the BFS/SSSP
// validation kernels on gsKernelN-vertex graphs. The seed draws the
// tensor contents (which set the attention indices and MoE routing, and
// so the traffic), the random graphs and the kernels' source vertices.
// Kernel cycles swing by a quarter between random graphs; small graphs
// keep the kernels the cheapest jobs, so that swing stays out of the
// median job and barely moves a pass.
const (
	gsTokens, gsDim, gsExperts = 6, 6, 2
	gsKernelN                  = 16
)

var gsKernels = []string{"bfs", "sssp", "bfs", "sssp"}

type gsJob struct {
	kind                 string // transformer | bfs | sssp
	tokens, dim, experts int
	topology, placement  string
	dataSeed             int64
	graph                *sim.Graph // kernels only
	src                  int
}

func (j gsJob) String() string {
	if j.kind == "transformer" {
		return fmt.Sprintf("transformer t%dd%de%d %s/%s", j.tokens, j.dim, j.experts, j.topology, j.placement)
	}
	return fmt.Sprintf("%s n=%d", j.kind, j.graph.N)
}

// gsCounts is one job's deterministic simulated behaviour.
type gsCounts struct {
	cycles, instr, remote, delivered, latSum, retries, crit int64
}

// gsJobList builds the seeded job list: a transformer job for every
// topology and placement, then the kernel jobs.
func gsJobList(seed int64) []gsJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []gsJob
	for _, topo := range noc.TopologyNames() {
		for _, place := range workload.PlacementNames() {
			jobs = append(jobs, gsJob{
				kind: "transformer", tokens: gsTokens, dim: gsDim, experts: gsExperts,
				topology: topo, placement: place, dataSeed: rng.Int63(),
			})
		}
	}
	for _, k := range gsKernels {
		jobs = append(jobs, gsJob{kind: k, graph: sim.RandomGraph(gsKernelN, 2*gsKernelN, 8, rng.Int63()), src: rng.Intn(gsKernelN)})
	}
	return jobs
}

// runJob executes and verifies one job. runSecs is the host time of
// the simulating call alone.
func (j gsJob) runJob(tr *Tracer, root int, id int64) (c gsCounts, runSecs float64, wrong bool, err error) {
	if j.kind != "transformer" {
		return j.runKernel(tr, root, id)
	}
	sp := tr.Begin("workload.build", root, id)
	g, err := workload.Builtin("transformer", j.tokens, j.dim, j.experts)
	if err != nil {
		return c, 0, false, err
	}
	g.Seed = j.dataSeed
	m, err := workload.BuildMachine(gsSide, j.topology)
	tr.End(sp)
	if err != nil {
		return c, 0, false, err
	}
	defer m.Close()
	sp = tr.Begin("workload.Run", root, id)
	t0 := time.Now()
	outputs, rep, err := workload.Run(m, g, workload.Options{Placement: j.placement})
	runSecs = time.Since(t0).Seconds()
	tr.End(sp)
	if err != nil {
		return c, runSecs, false, err
	}
	sp = tr.Begin("workload.verify", root, id)
	want, err := workload.Reference(g)
	bad := workload.CompareOutputs(outputs, want)
	tr.End(sp)
	if err != nil {
		return c, runSecs, false, err
	}
	st := m.Net().Stats()
	c = gsCounts{
		cycles: rep.TotalCycles, instr: rep.Instructions, remote: rep.RemoteOps,
		delivered: int64(st.Delivered), latSum: st.TotalLatency,
		retries: rep.Degradation.RetriedOps, crit: rep.CriticalPathCycles,
	}
	return c, runSecs, !rep.Completed || len(bad) > 0, nil
}

func (j gsJob) runKernel(tr *Tracer, root int, id int64) (c gsCounts, runSecs float64, wrong bool, err error) {
	sp := tr.Begin("sim.NewMachine", root, id)
	cfg := arch.DefaultConfig()
	cfg.TilesX, cfg.TilesY, cfg.JTAGChains = gsSide, gsSide, gsSide
	m, err := sim.NewMachine(cfg, fault.NewMap(cfg.Grid()))
	tr.End(sp)
	if err != nil {
		return c, 0, false, err
	}
	defer m.Close()
	g := j.graph
	if j.kind == "bfs" {
		g = g.Unweighted()
	}
	sp = tr.Begin("sim.RunSSSP", root, id)
	t0 := time.Now()
	res, err := sim.RunSSSP(m, g, j.src, sim.SpreadWorkers(m, 16), 50_000_000)
	runSecs = time.Since(t0).Seconds()
	tr.End(sp)
	if err != nil {
		return c, runSecs, false, err
	}
	sp = tr.Begin("sim.ReferenceSSSP", root, id)
	mism := sim.CountMismatches(res.Dist, g.ReferenceSSSP(j.src))
	tr.End(sp)
	st := m.Net().Stats()
	c = gsCounts{
		cycles: res.Cycles, instr: res.Instructions, remote: res.RemoteOps,
		delivered: int64(st.Delivered), latSum: st.TotalLatency,
		retries: m.Degradation().RetriedOps,
	}
	return c, runSecs, mism > 0, nil
}

// gsWarmup runs one small job so lazy initialisation (kernel assembly,
// heap growth) happens in set-up, not in the first measured job.
func gsWarmup() error {
	j := gsJob{kind: "transformer", tokens: 4, dim: 4, experts: 2, placement: "rowmajor", dataSeed: 1}
	_, _, wrong, err := j.runJob(nil, 0, 0)
	if err == nil && wrong {
		err = fmt.Errorf("warm-up job disagrees with its reference")
	}
	return err
}

// placeProbe times workload.Place on its own for every transformer job,
// each on a fresh machine. Run places internally, inside the job, so
// the probe runs after the measured phases and adds no work to them.
func placeProbe(tr *Tracer, jobs []gsJob) error {
	for i, j := range jobs {
		if j.kind != "transformer" {
			continue
		}
		g, err := workload.Builtin("transformer", j.tokens, j.dim, j.experts)
		if err != nil {
			return err
		}
		g.Seed = j.dataSeed
		m, err := workload.BuildMachine(gsSide, j.topology)
		if err != nil {
			return err
		}
		sp := tr.Begin("workload.Place", 0, int64(i))
		_, err = workload.Place(m, g, j.placement)
		tr.End(sp)
		m.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func runGraphSim(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	jobs := gsJobList(cfg.seed)
	if err := gsWarmup(); err != nil {
		return nil, err
	}
	o.setup = append(o.setup, time.Since(t0).Seconds())
	if cfg.setupOnly {
		return o, nil
	}

	first := make([]*gsCounts, len(jobs))
	var tracedCycles, tracedInstr int64
	minPhases := 1
	if cfg.tracer != nil {
		minPhases = 2
	}
	start := time.Now()
	var id int64
	for k := 0; ; k++ {
		tr := cfg.phaseTracer(k)
		ph := phase{traced: tr != nil}
		pStart := time.Now()
		for i, j := range jobs {
			id++
			o.attempted++
			root := tr.Begin("job", 0, id)
			t0 := time.Now()
			c, runSecs, wrong, err := j.runJob(tr, root, id)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.End(root)
			switch {
			case err != nil:
				o.fail(false, "job %d (%v): %v", i, j, err)
				continue
			case wrong:
				o.fail(true, "job %d (%v): output differs from the reference", i, j)
				continue
			}
			if first[i] == nil {
				first[i] = &c
			} else if *first[i] != c {
				o.fail(true, "job %d (%v): simulated counts changed between repeats: %+v vs %+v", i, j, *first[i], c)
				continue
			}
			o.addJob(ms, tr != nil)
			ph.jobs++
			ph.simCycles += c.cycles
			ph.simSecs += runSecs
			if tr != nil {
				tracedCycles += c.cycles
				tracedInstr += c.instr
			}
		}
		ph.secs = time.Since(pStart).Seconds()
		o.phases = append(o.phases, ph)
		if k+1 >= minPhases && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}

	// The behaviour record sums one pass over the job list (jobs that
	// never completed are already counted as failed).
	var pass gsCounts
	for _, c := range first {
		if c == nil {
			continue
		}
		pass.cycles += c.cycles
		pass.instr += c.instr
		pass.remote += c.remote
		pass.delivered += c.delivered
		pass.latSum += c.latSum
		pass.retries += c.retries
		pass.crit += c.crit
	}
	o.counts["sim_cycles"] = pass.cycles
	o.counts["sim.instructions"] = pass.instr
	o.counts["sim.remote_ops"] = pass.remote
	o.counts["noc.delivered"] = pass.delivered
	o.counts["noc.latency_sum"] = pass.latSum
	o.counts["sim.retries"] = pass.retries
	o.counts["workload.crit_path_cycles"] = pass.crit

	if cfg.tracer != nil {
		if err := placeProbe(cfg.tracer, jobs); err != nil {
			return nil, err
		}
		lt := aggregate(cfg.tracer.Spans())
		runNs := float64(lt.total["workload.Run"] + lt.total["sim.RunSSSP"])
		o.layer["sim_cycles"] = float64(pass.cycles)
		o.layer["sim.instructions"] = float64(pass.instr)
		o.layer["sim.remote_ops"] = float64(pass.remote)
		o.layer["sim.retries"] = float64(pass.retries)
		o.layer["noc.delivered"] = float64(pass.delivered)
		o.layer["noc.avg_latency_cyc"] = ratio(float64(pass.latSum), float64(pass.delivered))
		o.layer["noc.inflight_per_router"] = ratio(float64(pass.latSum), float64(pass.cycles*gsSide*gsSide))
		o.layer["workload.crit_path_cycles"] = float64(pass.crit)
		o.layer["sim.host_ns_per_cycle"] = ratio(runNs, float64(tracedCycles))
		o.layer["sim.host_ns_per_instr"] = ratio(runNs, float64(tracedInstr))
		o.layer["workload.run_ms"] = lt.meanMs("workload.Run")
		o.layer["workload.place_ms"] = lt.meanMs("workload.Place")
		o.layer["workload.build_ms"] = lt.meanMs("workload.build")
		o.layer["workload.verify_ms"] = lt.meanMs("workload.verify")
	}
	return o, nil
}
