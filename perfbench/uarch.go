package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// uarch sizes: the paper's 4-core system with caches scaled by 8 and
// rlr-mc in the LLC as in fig13. The mix is homogeneous: every core runs
// the workload's benchmark from its own seed, so the mcf and xalancbmk
// workloads put different pressure on the shared LLC.
const (
	uarchCores   = 4
	uarchScale   = 8
	uarchWarmup  = 25_000
	uarchMeasure = 100_000
	uarchPolicy  = "rlr-mc"
)

// uarchCoreSeed separates the cores' streams of one benchmark.
const uarchCoreSeed = 0xBF58476D1CE4E5B9

func runUarch(u *unit, seed uint64, bench string) error {
	t0 := time.Now()
	srcs := make([]uarch.InstrSource, uarchCores)
	for i := range srcs {
		sp, err := spec(bench, seed+uint64(i)*uarchCoreSeed)
		if err != nil {
			return err
		}
		g := workloads.New(sp)
		ins := make([]trace.Instr, uarchWarmup+uarchMeasure)
		for j := range ins {
			ins[j] = g.Next()
		}
		srcs[i] = uarch.NewSliceSource(ins)
	}
	u.values["workloads.gen_s"] += time.Since(t0).Seconds()
	cfg := uarch.ScaledConfig(uarchCores, uarchScale)
	pol, err := policy.New(uarchPolicy)
	if err != nil {
		return err
	}
	var tp *timedPolicy
	if u.traced {
		tp = &timedPolicy{Policy: pol}
		pol = tp
	}
	sys := uarch.NewSystem(cfg, pol)
	u.setup += time.Since(t0)

	var res []uarch.Result
	d := u.measure(func() { res = sys.RunMulti(srcs, uarchWarmup, uarchMeasure) })

	instrs := uint64(0)
	logIPC := 0.0
	for i, r := range res {
		instrs += r.Instructions
		ipc := r.IPC()
		if ipc <= 0 || ipc > float64(cfg.IssueWidth) {
			return fmt.Errorf("core %d IPC %.4f outside (0, issue width %d]", i, ipc, cfg.IssueWidth)
		}
		logIPC += math.Log(ipc)
		u.fidelity[fmt.Sprintf("uarch.ipc.core%d", i)] = ipc
	}
	if len(res) != uarchCores || instrs != uarchCores*uarchMeasure {
		return fmt.Errorf("%d cores measured %d instructions, want %d×%d",
			len(res), instrs, uarchCores, uarchMeasure)
	}
	st := res[0].LLCStats
	u.fidelity["uarch.ipc_geomean"] = math.Exp(logIPC / uarchCores)
	u.fidelity["uarch.demand_mpki"] = res[0].DemandMPKI
	if demand := st.DemandHits + st.DemandMisses; demand > 0 {
		u.fidelity["uarch.llc_demand_hit_pct"] = 100 * float64(st.DemandHits) / float64(demand)
	}
	u.fidelity["uarch.llc_accesses.load"] = float64(st.ByType[trace.Load])
	u.fidelity["uarch.llc_accesses.rfo"] = float64(st.ByType[trace.RFO])
	u.fidelity["uarch.llc_accesses.prefetch"] = float64(st.ByType[trace.Prefetch])
	u.fidelity["uarch.llc_accesses.writeback"] = float64(st.ByType[trace.Writeback])

	simulated := uint64(uarchCores * (uarchWarmup + uarchMeasure))
	u.ops += simulated
	u.values["sim_instr_per_s"] = float64(simulated) / d.Seconds()
	u.values["uarch.ns_per_instr"] = float64(d.Nanoseconds()) / float64(simulated)
	u.values["uarch.ns_per_llc_access"] = float64(d.Nanoseconds()) / float64(sys.Hierarchy().Stats().Accesses)
	if tp != nil {
		tp.record(u, uarchPolicy)
		u.values["uarch.self_ns_per_instr"] = float64(selfTime(d, tp.total()).Nanoseconds()) / float64(simulated)
	}
	return nil
}
