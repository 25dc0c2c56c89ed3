// Command benchjson measures the wall-clock of each experiment at jobs=1
// versus jobs=NumCPU and writes the results as JSON, so the perf
// trajectory of the parallel engine is tracked across PRs.
//
// Usage:
//
//	benchjson                         # all experiments at BenchScale
//	benchjson -run fig10,fig4 -o BENCH_parallel.json
//	benchjson -hotpath                # per-access hot path -> BENCH_hotpath.json
//	benchjson -hotpath -quick -o -    # CI smoke: small trace, stdout
//	benchjson -intervals              # representative intervals -> BENCH_intervals.json
//	benchjson -intervals -quick -o -  # CI smoke: one small workload, stdout
//	benchjson -uarch                  # N-core timing-model scaling -> BENCH_uarch.json
//	benchjson -uarch -quick -o -      # CI smoke: short runs, stdout
//
// The memo caches are cleared before every timed run, so both columns
// measure cold, full work; the speedup column is serial/parallel. With
// -hotpath it instead measures the per-access inner loops and the
// chain-vs-map Belady replay speedup (see hotpath.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
)

type entry struct {
	Experiment string  `json:"experiment"`
	SerialMS   float64 `json:"serial_ms"`   // jobs=1
	ParallelMS float64 `json:"parallel_ms"` // jobs=NumCPU
	Speedup    float64 `json:"speedup"`
	Rows       int     `json:"rows"`
}

type report struct {
	Meta            obs.BuildInfo `json:"meta"` // machine/toolchain attribution
	Scale           string        `json:"scale"`
	Jobs            int           `json:"jobs"` // the parallel column's worker count
	NumCPU          int           `json:"num_cpu"`
	Results         []entry       `json:"results"`
	TotalSerialMS   float64       `json:"total_serial_ms"`
	TotalParallelMS float64       `json:"total_parallel_ms"`
	TotalSpeedup    float64       `json:"total_speedup"`
}

func main() {
	var (
		runList = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "bench", "scale: quick, full, or bench")
		out     = flag.String("o", "", "output file ('-' for stdout; default BENCH_parallel.json or BENCH_hotpath.json)")
		jobs    = flag.Int("jobs", 0, "parallel column's worker count (0 = NumCPU)")
		hotpath = flag.Bool("hotpath", false, "measure the per-access hot path instead of the experiment grid")
		intvls  = flag.Bool("intervals", false, "measure representative-interval selection vs full-trace simulation")
		uarchF  = flag.Bool("uarch", false, "measure the multi-core timing model's N-core scaling")
		quick   = flag.Bool("quick", false, "with -hotpath/-intervals/-uarch: small traces and short budgets (CI smoke)")
	)
	flag.Parse()

	if *uarchF {
		path := *out
		if path == "" {
			path = "BENCH_uarch.json"
		}
		if err := runUarch(*quick, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *intvls {
		path := *out
		if path == "" {
			path = "BENCH_intervals.json"
		}
		if err := runIntervals(*quick, *jobs, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *hotpath {
		path := *out
		if path == "" {
			path = "BENCH_hotpath.json"
		}
		if err := runHotpath(*quick, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_parallel.json"
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "full":
		s = experiments.FullScale()
	case "bench":
		s = experiments.BenchScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var ids []string
	if *runList == "all" {
		for _, e := range experiments.List() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*runList, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	par := *jobs
	if par <= 0 {
		par = runtime.NumCPU()
	}
	rep := report{Meta: obs.CollectBuildInfo(), Scale: s.Name, Jobs: par, NumCPU: runtime.NumCPU()}
	timeRun := func(id string, workers int) (time.Duration, int, error) {
		sched.SetWorkers(workers)
		experiments.ResetCaches() // cold: time the full work, not the memo
		start := time.Now()
		tbl, err := experiments.Run(id, s)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), len(tbl.Rows), nil
	}
	for _, id := range ids {
		serial, rows, err := timeRun(id, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (jobs=1): %v\n", id, err)
			os.Exit(1)
		}
		parallel, _, err := timeRun(id, par)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (jobs=%d): %v\n", id, par, err)
			os.Exit(1)
		}
		e := entry{
			Experiment: id,
			SerialMS:   float64(serial.Microseconds()) / 1000,
			ParallelMS: float64(parallel.Microseconds()) / 1000,
			Rows:       rows,
		}
		if parallel > 0 {
			e.Speedup = float64(serial) / float64(parallel)
		}
		rep.Results = append(rep.Results, e)
		rep.TotalSerialMS += e.SerialMS
		rep.TotalParallelMS += e.ParallelMS
		fmt.Fprintf(os.Stderr, "%-12s jobs=1 %8.0fms   jobs=%d %8.0fms   %.2fx\n",
			id, e.SerialMS, par, e.ParallelMS, e.Speedup)
	}
	if rep.TotalParallelMS > 0 {
		rep.TotalSpeedup = rep.TotalSerialMS / rep.TotalParallelMS
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (total: jobs=1 %.0fms, jobs=%d %.0fms, %.2fx)\n",
		*out, rep.TotalSerialMS, par, rep.TotalParallelMS, rep.TotalSpeedup)
}
