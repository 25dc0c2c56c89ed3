// Command perfbench is the repository's benchmark: it runs one workload
// (an input, mcf or xalancbmk) through the four headline paths (llc,
// uarch, kv-direct, kv-http) for a fixed time, checks every output, and
// prints the metrics as one JSON object on the last line of standard
// output. See README.md in this directory for the workloads, the metrics
// and what each per-layer metric should move.
//
//	bash perfbench/run.sh --workload mcf --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions and prints the per-layer
// metrics, the fidelity metrics and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// unit is one repetition of a workload: each path in turn sets up afresh
// from the seed, then runs its measured regions. Untraced and traced
// repetitions of the same seed do identical work, so their fidelity maps
// must be equal.
type unit struct {
	traced     bool
	warmup     bool          // checked, but left out of every metric
	setup      time.Duration // summed set-up of the paths
	wall       time.Duration // summed measured regions
	ops        uint64        // operations attempted in the measured regions
	failed     uint64        // operations that failed
	allocBytes uint64        // heap allocation over the measured regions
	gcCycles   uint64        // GC cycles completed during the measured regions
	values     map[string]float64
	samples    map[string]int // sample count behind each percentile
	fidelity   map[string]float64
}

func newUnit(traced bool) *unit {
	return &unit{
		traced:   traced,
		values:   map[string]float64{},
		samples:  map[string]int{},
		fidelity: map[string]float64{},
	}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// measure runs f as a measured region and returns its wall time. Every
// region starts from a collected heap, so garbage from set-up or an
// earlier region is not charged to it.
func (u *unit) measure(f func()) time.Duration {
	runtime.GC()
	metrics.Read(runtimeSamples)
	a0, g0 := runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	metrics.Read(runtimeSamples)
	u.allocBytes += runtimeSamples[0].Value.Uint64() - a0
	u.gcCycles += runtimeSamples[1].Value.Uint64() - g0
	u.wall += d
	return d
}

// percentiles sets name.p<p> to the nearest-rank p-th percentile of xs
// for each p (50 and 99 when none are given) and records the sample count.
func (u *unit) percentiles(name string, xs []float64, ps ...float64) {
	if len(ps) == 0 {
		ps = []float64{50, 99}
	}
	for _, p := range ps {
		u.values[fmt.Sprintf("%s.p%.0f", name, p)] = percentile(xs, p)
	}
	u.samples[name] = len(xs)
}

// path runs one of the four headline paths on the named benchmark's
// streams. Set-up time is added to u.setup, measured regions go through
// u.measure, and a failed output check is an error.
type path func(u *unit, seed uint64, bench string) error

var paths = []struct {
	name string
	run  path
}{
	{"llc", runLLC},
	{"uarch", runUarch},
	{"kv-direct", runKVDirect},
	{"kv-http", runKVHTTP},
}

// runUnit runs every path once on the workload's benchmark.
func runUnit(u *unit, seed uint64, wl workloadDef) error {
	for _, p := range paths {
		if err := p.run(u, seed, wl.bench); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: mcf or xalancbmk")
	seed := flag.Uint64("seed", 1, "input seed, mixed into every workloads.Spec.Seed")
	seconds := flag.Float64("seconds", 50, "time to spend repeating the workload")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	wl, ok := workloadNamed(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		names := make([]string, len(allWorkloads))
		for i, w := range allWorkloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, ","))
		os.Exit(2)
	}
	traced := *traceFlag == 1
	units, runErr := repeat(wl, *seed, *seconds, traced)

	res := result{Correct: runErr == nil}
	for _, u := range units {
		res.Attempted += u.ops
		res.Failed += u.failed
	}
	meta := map[string]any{
		"workload": *name, "bench": wl.bench, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"units": len(units), "build": obs.CollectBuildInfo(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if runErr == nil {
		res.Metrics, runErr = aggregate(units, traced)
		res.Correct = runErr == nil
		meta["samples"] = sampleCounts(units)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		meta["error"] = runErr.Error()
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: metadata:", err)
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metricValue{}
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// repeat runs an untraced warm-up unit, which grows the heap and warms
// the caches of the host and the runtime, then runs units until the time
// is spent, never starting one that the last unit's length says would
// overrun. Every unit, the warm-up too, is checked; the warm-up enters no
// metric. Untraced runs take at least three more units so every figure is
// a median; traced runs alternate untraced and traced units and end on a
// complete pair.
func repeat(wl workloadDef, seed uint64, seconds float64, traced bool) ([]*unit, error) {
	minUnits, step := 3, 1
	if traced {
		minUnits, step = 2, 2
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var units []*unit
	run := func(traced, warmup bool) error {
		runtime.GC() // start every unit from the same heap state
		u := newUnit(traced)
		u.warmup = warmup
		if err := runUnit(u, workloadSeed(seed), wl); err != nil {
			return err
		}
		if len(units) > 0 {
			if err := sameFidelity(units[0], u); err != nil {
				return err
			}
		}
		units = append(units, u)
		logUnit(len(units), u)
		return nil
	}
	if err := run(false, true); err != nil {
		return units, err
	}
	for {
		t0 := time.Now()
		for i := 0; i < step; i++ {
			if err := run(traced && i == 1, false); err != nil {
				return units, err
			}
		}
		last := time.Since(t0)
		if len(units)-1 >= minUnits && time.Since(start)+last > budget {
			return units, nil
		}
	}
}

// logUnit writes one unit's timings and end-to-end figures (the values
// without a layer prefix) to standard error.
func logUnit(i int, u *unit) {
	keys := make([]string, 0, len(u.values))
	for k := range u.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: unit %d warmup=%v traced=%v setup=%.3fs measured=%.3fs", i, u.warmup, u.traced, u.setup.Seconds(), u.wall.Seconds())
	for _, k := range keys {
		if !strings.Contains(k, ".") {
			fmt.Fprintf(&b, " %s=%.6g", k, u.values[k])
		}
	}
	fmt.Fprintln(os.Stderr, b.String())
}

// workloadSeed maps the seed argument to the offset added to every
// workloads.Spec.Seed; seed 0 leaves the repository's canonical specs.
func workloadSeed(seed uint64) uint64 { return seed * 0x9E3779B97F4A7C15 }

// sameFidelity checks that two units of one seed simulated the same
// thing: every fidelity metric and server counter must be identical,
// traced or not.
func sameFidelity(a, b *unit) error {
	if len(a.fidelity) != len(b.fidelity) {
		return fmt.Errorf("fidelity: %d metrics vs %d", len(a.fidelity), len(b.fidelity))
	}
	for k, v := range a.fidelity {
		w, ok := b.fidelity[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("fidelity: %s differs between repetitions (traced=%v: %v, traced=%v: %v)",
				k, a.traced, v, b.traced, w)
		}
	}
	return nil
}

// aggregate reduces the units to the declared metrics of the mode. Every
// figure is a median over units: a percentile is taken within
// each unit, then the median of those is reported.
func aggregate(units []*unit, traced bool) (map[string]metricValue, error) {
	var plain, tr, timed []*unit
	for _, u := range units {
		if u.warmup {
			continue
		}
		timed = append(timed, u)
		if u.traced {
			tr = append(tr, u)
		} else {
			plain = append(plain, u)
		}
	}
	vals := map[string]float64{}
	// Set-up pieces do not depend on tracing: take every unit. Other
	// values come from untraced units, and a traced unit adds only what
	// untraced units cannot measure.
	medianOf(vals, timed, func(k string) bool { return setupKeys[k] })
	medianOf(vals, plain, func(k string) bool { return !setupKeys[k] })
	medianOf(vals, tr, func(k string) bool { _, done := vals[k]; return !done })
	defs := endToEnd
	if traced {
		defs = perLayer
		for k, v := range units[0].fidelity {
			vals[k] = v
		}
		var allocs, gcs, ops, plainWall, trWall []float64
		for _, u := range plain {
			allocs = append(allocs, float64(u.allocBytes))
			ops = append(ops, float64(u.ops))
			gcs = append(gcs, float64(u.gcCycles))
			plainWall = append(plainWall, u.wall.Seconds())
		}
		for _, u := range tr {
			trWall = append(trWall, u.wall.Seconds())
		}
		vals["go.alloc_bytes_per_op"] = median(allocs) / median(ops)
		vals["go.gc_cycles"] = median(gcs)
		vals["bench.trace_overhead_pct"] = 100 * (median(trWall)/median(plainWall) - 1)
	} else {
		var setups []float64
		for _, u := range plain {
			setups = append(setups, u.setup.Seconds())
		}
		vals["setup_s"] = median(setups)
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		vals["peak_rss_mib"] = rss
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// sampleCounts sums, per percentile family, the samples behind the
// reported figures. Like aggregate, it takes a family from the untraced
// units when they report it and from the traced units otherwise.
func sampleCounts(units []*unit) map[string]int {
	plain, tr := map[string]int{}, map[string]int{}
	for _, u := range units {
		if u.warmup {
			continue
		}
		n := plain
		if u.traced {
			n = tr
		}
		for k, c := range u.samples {
			n[k] += c
		}
	}
	for k, c := range tr {
		if _, ok := plain[k]; !ok {
			plain[k] = c
		}
	}
	return plain
}

// setupKeys are the per-unit set-up timings, reported from every unit.
var setupKeys = map[string]bool{
	"workloads.gen_s": true, "policy.oracle_build_s": true,
	"rl.trainer_new_s": true, "server.new_s": true,
}

// medianOf sets vals[k] to the median over units of every value whose
// key passes keep.
func medianOf(vals map[string]float64, units []*unit, keep func(string) bool) {
	byKey := map[string][]float64{}
	for _, u := range units {
		for k, v := range u.values {
			if keep(k) {
				byKey[k] = append(byKey[k], v)
			}
		}
	}
	for k, xs := range byKey {
		vals[k] = median(xs)
	}
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
