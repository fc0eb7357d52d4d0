package sim

import (
	"context"
	"fmt"

	"waferscale/internal/arch"
)

// ChaosResult is the outcome of a workload run under runtime fault
// injection. Unlike WorkloadResult it is produced even when the run
// degrades: the machine either quiesces (every surviving core halts)
// or the cycle budget expires — it never hangs and never panics.
type ChaosResult struct {
	// Dist is the best-effort distance readback; entries whose backing
	// memory was lost read as whatever the shadow holds (zeroed).
	Dist []int32
	// Cycles is the machine cycle count when the run ended.
	Cycles int64
	// Completed reports that every started core halted (or faulted)
	// within the budget; false means the budget expired first (e.g. a
	// barrier waiting on a dead worker).
	Completed bool
	// RunErr carries the budget-exhaustion error or the first core
	// fault, for diagnostics; the run result is still valid.
	RunErr error
	// ReadErrors counts distance words that could not be read back at
	// all (owner dead with no fallback).
	ReadErrors int
	// Report is the machine's structured degradation account.
	Report DegradationReport
}

// RunSSSPUnderFaults runs the SSSP/BFS kernel like RunSSSP but
// tolerates mid-run faults: cores faulting, tiles dying, and budget
// exhaustion all produce a ChaosResult instead of an error. Attach a
// fault schedule to the machine before calling. The returned error is
// non-nil only for setup problems (bad graph, unloadable program).
func RunSSSPUnderFaults(m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*ChaosResult, error) {
	return RunSSSPUnderFaultsCtx(context.Background(), m, g, src, workers, maxCycles)
}

// RunSSSPUnderFaultsCtx is RunSSSPUnderFaults with cancellation: the
// machine checks ctx at cycle-boundary strides (see Machine.RunCtx),
// and on cancellation the setup error returned is ctx.Err() — no
// ChaosResult is produced, since a mid-run snapshot would look like a
// budget expiry rather than a cancelled run.
func RunSSSPUnderFaultsCtx(ctx context.Context, m *Machine, g *Graph, src int, workers []WorkerRef, maxCycles int64) (*ChaosResult, error) {
	distA, err := PrepareSSSP(m, g, src, workers)
	if err != nil {
		return nil, err
	}
	runErr := m.RunCtx(ctx, maxCycles)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return CollectSSSP(m, g, distA, runErr), nil
}

// PrepareSSSP performs the setup half of a fault-tolerant SSSP/BFS run:
// graph layout into shared memory, kernel assembly, and program plus
// per-worker parameter loads. It returns the distance array's global
// base address, which CollectSSSP needs for readback. Splitting setup
// from execution lets the warm-state forking drivers prepare one prefix
// machine, fork it per trial, and collect each fork independently.
func PrepareSSSP(m *Machine, g *Graph, src int, workers []WorkerRef) (uint32, error) {
	distA, err := layoutSSSP(m, g, src, len(workers))
	if err != nil {
		return 0, err
	}
	prog, err := Assemble(RelaxKernelSource)
	if err != nil {
		return 0, fmt.Errorf("sim: kernel does not assemble: %w", err)
	}
	for wid, w := range workers {
		if err := m.LoadProgram(w.Tile, w.Core, prog); err != nil {
			return 0, err
		}
		if err := m.WritePrivate32(w.Tile, w.Core, paramBase, uint32(wid)); err != nil {
			return 0, err
		}
		if err := m.WritePrivate32(w.Tile, w.Core, paramBase+4, arch.GlobalBase); err != nil {
			return 0, err
		}
	}
	return distA, nil
}

// CollectSSSP assembles the ChaosResult from a machine whose run ended
// (quiesced, budget expired, or forked-and-finished): completion and
// fault classification, the degradation report, and the best-effort
// distance readback. runErr is the run loop's verdict — nil for a
// quiesced machine, a *BudgetError when the budget expired.
func CollectSSSP(m *Machine, g *Graph, distA uint32, runErr error) *ChaosResult {
	res := &ChaosResult{RunErr: runErr}
	res.Completed = res.RunErr == nil
	if res.RunErr == nil {
		if faults := m.Faults(); len(faults) > 0 {
			res.RunErr = fmt.Errorf("sim: cores faulted: %v", faults[0])
		}
	}
	res.Cycles = m.Cycle()
	res.Report = m.Degradation()

	res.Dist = make([]int32, g.N)
	for i := range res.Dist {
		v, err := m.ReadGlobal32(distA + uint32(4*i))
		if err != nil {
			res.Dist[i] = Infinity
			res.ReadErrors++
			continue
		}
		res.Dist[i] = int32(v)
	}
	return res
}
