// bench_test.go regenerates every table and figure of the paper as a Go
// benchmark, one testing.B per experiment (see DESIGN.md's experiment
// index). Each iteration executes the complete experiment at BenchScale —
// a reduced instruction/trace budget that preserves the comparisons. Run
//
//	go test -bench=. -benchmem
//
// and use cmd/experiments -scale full for the paper-scale numbers. The
// BenchmarkCold* pairs at the bottom time cold (memo-cleared) runs at
// jobs=1 versus jobs=NumCPU to track the parallel engine's speedup;
// cmd/benchjson emits the same comparison as BENCH_parallel.json.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/stats"
)

// runExperiment executes one experiment b.N times, reporting the table's
// row count as a sanity metric. Traces and trained agents are memoized
// across benchmarks within the process, as they are in the harness binary.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	s := experiments.BenchScale()
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiments.Run(id, s)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	if tbl == nil || len(tbl.Rows) == 0 {
		b.Fatalf("experiment %s produced an empty table", id)
	}
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTable1Overhead regenerates Table I (storage overhead).
func BenchmarkTable1Overhead(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFigure1HitRate regenerates Figure 1 (LLC hit rate comparison,
// including the RL agent and the Belady oracle).
func BenchmarkFigure1HitRate(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFigure3Heatmap regenerates Figure 3 (NN weight heat map).
func BenchmarkFigure3Heatmap(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkHillClimb regenerates the §III-B hill-climbing feature search.
func BenchmarkHillClimb(b *testing.B) { runExperiment(b, "hillclimb") }

// BenchmarkFigure4Preuse regenerates Figure 4 (|preuse − reuse| buckets).
func BenchmarkFigure4Preuse(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5VictimAge regenerates Figure 5 (victim age by type).
func BenchmarkFigure5VictimAge(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6HitsAtEviction regenerates Figure 6 (victim hit counts).
func BenchmarkFigure6HitsAtEviction(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7Recency regenerates Figure 7 (victim recency histogram).
func BenchmarkFigure7Recency(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure10SpeedupSPEC regenerates Figure 10 (single-core IPC
// speedup over LRU, SPEC CPU 2006, 29 workloads × 7 policies).
func BenchmarkFigure10SpeedupSPEC(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11SpeedupCloud regenerates Figure 11 (CloudSuite).
func BenchmarkFigure11SpeedupCloud(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12MPKI regenerates Figure 12 (demand MPKI).
func BenchmarkFigure12MPKI(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13Multicore regenerates Figure 13 (4-core mixes).
func BenchmarkFigure13Multicore(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable4Summary regenerates Table IV (overall speedup summary).
func BenchmarkTable4Summary(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkAblationPriorities regenerates the §V-B hit/type ablation.
func BenchmarkAblationPriorities(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkAblationAgeBits regenerates the §IV-C age/RD design sweep.
func BenchmarkAblationAgeBits(b *testing.B) { runExperiment(b, "agesweep") }

// BenchmarkAblationAgeWeight regenerates the age-priority weight sweep.
func BenchmarkAblationAgeWeight(b *testing.B) { runExperiment(b, "weightsweep") }

// BenchmarkKPCPInteraction regenerates the §V-B KPC-P prefetcher study.
func BenchmarkKPCPInteraction(b *testing.B) { runExperiment(b, "kpcp") }

// BenchmarkMCScale regenerates the 8/16-core timing-model scaling table.
func BenchmarkMCScale(b *testing.B) { runExperiment(b, "mcscale") }

// runExperimentCold times cold runs: the memo caches are cleared every
// iteration so the full (workload × policy) grid executes, on the given
// worker count. The Jobs1/JobsMax pairs measure the parallel engine.
func runExperimentCold(b *testing.B, id string, workers int) {
	b.Helper()
	sched.SetWorkers(workers)
	defer sched.SetWorkers(0)
	s := experiments.BenchScale()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		if _, err := experiments.Run(id, s); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkColdFig10Jobs1 regenerates Figure 10 serially from cold caches.
func BenchmarkColdFig10Jobs1(b *testing.B) { runExperimentCold(b, "fig10", 1) }

// BenchmarkColdFig10JobsMax regenerates Figure 10 from cold caches with
// the full worker pool.
func BenchmarkColdFig10JobsMax(b *testing.B) { runExperimentCold(b, "fig10", runtime.NumCPU()) }

// BenchmarkColdFig13Jobs1 regenerates the 4-core mixes serially.
func BenchmarkColdFig13Jobs1(b *testing.B) { runExperimentCold(b, "fig13", 1) }

// BenchmarkColdFig13JobsMax regenerates the 4-core mixes on the full pool.
func BenchmarkColdFig13JobsMax(b *testing.B) { runExperimentCold(b, "fig13", runtime.NumCPU()) }
