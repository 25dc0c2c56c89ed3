package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// The -uarch mode benchmarks the multi-core timing model (internal/uarch)
// and writes BENCH_uarch.json: the N-core scaling curve — simulated
// instructions and LLC accesses per wall-clock second, geomean IPC, and
// shared-LLC contention — past the paper's 4-core table. The 8-core row
// carries per-core results so mix heterogeneity is visible.

type uarchCoreRow struct {
	Core         int     `json:"core"`
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
}

// uarchScaleRow is one core count. wall_ms times warmup plus measurement,
// so instr_per_sec counts every simulated instruction (warmup+measure per
// core) and the llc_* fields come from Hierarchy.Stats over the whole run;
// instructions, geomean_ipc and demand_mpki cover the measured window.
// LLC accesses per instruction grow with core count (shared-LLC
// contention), so instr_per_sec and llc_accesses_per_sec move apart.
type uarchScaleRow struct {
	Cores             int            `json:"cores"`
	WallMS            float64        `json:"wall_ms"`
	Instructions      uint64         `json:"instructions"`
	InstrPerSec       float64        `json:"instr_per_sec"`
	LLCAccesses       uint64         `json:"llc_accesses"`
	LLCAccessesPerSec float64        `json:"llc_accesses_per_sec"`
	GeomeanIPC        float64        `json:"geomean_ipc"`
	LLCDemandHitPct   float64        `json:"llc_demand_hit_pct"`
	DemandMPKI        float64        `json:"demand_mpki"`
	WBToDRAM          uint64         `json:"wb_to_dram"`
	PerCore           []uarchCoreRow `json:"per_core,omitempty"` // populated for the 8-core row
}

type uarchReport struct {
	Meta    obs.BuildInfo   `json:"meta"`
	Quick   bool            `json:"quick"`
	Policy  string          `json:"policy"` // LLC policy for the scaling rows
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Scaling []uarchScaleRow `json:"scaling"`
}

func runUarch(quick bool, path string) error {
	pol := "drrip"
	warmup, measure := uint64(50_000), uint64(200_000)
	coreCounts := []int{1, 2, 4, 8, 16}
	if quick {
		warmup, measure = 4_000, 16_000
		coreCounts = []int{1, 2, 8}
	}

	rep := uarchReport{
		Meta: obs.CollectBuildInfo(), Quick: quick,
		Policy: pol, Warmup: warmup, Measure: measure,
	}

	// Mixes cycle the 8 training workloads so every row is deterministic
	// and self-describing.
	names := workloads.TrainingNames()
	for _, cores := range coreCounts {
		mix := make([]string, cores)
		srcs := make([]uarch.InstrSource, cores)
		for i := range srcs {
			mix[i] = names[i%len(names)]
			spec, err := workloads.ByName(mix[i])
			if err != nil {
				return err
			}
			srcs[i] = workloads.New(spec)
		}
		sys := uarch.NewSystem(uarch.ScaledConfig(cores, 8), policy.MustNew(pol))
		start := time.Now()
		results := sys.RunMulti(srcs, warmup, measure)
		wallMS := msSince(start)

		row := uarchScaleRow{Cores: cores, WallMS: wallMS}
		ipcs := make([]float64, len(results))
		for i, r := range results {
			row.Instructions += r.Instructions
			ipcs[i] = r.IPC()
		}
		gm, err := mathx.GeoMean(ipcs)
		if err != nil {
			return err
		}
		row.GeomeanIPC = gm
		h := sys.Hierarchy()
		st := h.Stats()
		row.LLCAccesses = st.Accesses
		if wallMS > 0 {
			row.InstrPerSec = float64(uint64(cores)*(warmup+measure)) / (wallMS / 1000)
			row.LLCAccessesPerSec = float64(st.Accesses) / (wallMS / 1000)
		}
		if d := st.DemandHits + st.DemandMisses; d > 0 {
			row.LLCDemandHitPct = 100 * float64(st.DemandHits) / float64(d)
		}
		row.DemandMPKI = results[0].DemandMPKI
		row.WBToDRAM = h.WBToDRAM()
		if cores == 8 {
			for i, r := range results {
				row.PerCore = append(row.PerCore, uarchCoreRow{
					Core: i, Workload: mix[i],
					Instructions: r.Instructions, Cycles: r.Cycles, IPC: r.IPC(),
				})
			}
		}
		rep.Scaling = append(rep.Scaling, row)
		fmt.Fprintf(os.Stderr, "%2d-core %8.1fms   %.3fM instr/s   %.3fM LLC accesses/s   gIPC %.3f   LLC demand hit %5.2f%%\n",
			cores, wallMS, row.InstrPerSec/1e6, row.LLCAccessesPerSec/1e6, row.GeomeanIPC, row.LLCDemandHitPct)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
