package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// TestTimedPolicyForwardsUnchanged replays a short trace under every
// policy the benchmark wraps, bare and wrapped, on a cache the trace
// overflows: the statistics must be identical and the wrapper must have
// seen the calls.
func TestTimedPolicyForwardsUnchanged(t *testing.T) {
	sp, err := workloads.ByName(allWorkloads[0].bench)
	if err != nil {
		t.Fatal(err)
	}
	accs := workloads.LLCAccesses(sp, 20_000)
	cfg := cache.Config{Sets: 64, Ways: 16, LineSize: 64}
	newPolicy := func(name string) policy.Policy {
		if name == "belady" {
			return policy.NewBelady(policy.NewOracle(accs, cfg.LineSize))
		}
		p, err := policy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, name := range append(append([]string{}, zoo...), uarchPolicy, kvPolicy) {
		bare := cachesim.RunPolicy(cfg, newPolicy(name), accs)
		tp := &timedPolicy{Policy: newPolicy(name)}
		t0 := time.Now()
		wrapped := cachesim.RunPolicy(cfg, tp, accs)
		d := time.Since(t0)
		if bare != wrapped {
			t.Errorf("%s: wrapped stats %+v differ from bare %+v", name, wrapped, bare)
		}
		if tp.victims == 0 || tp.updates == 0 {
			t.Errorf("%s: wrapper saw %d Victim and %d Update calls", name, tp.victims, tp.updates)
		}
		if tp.total() > d {
			t.Errorf("%s: policy time %v exceeds the replay's %v", name, tp.total(), d)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{14, 10, 2}, // ceil(1.4) = 2nd smallest
		{10, 50, 5},
		{100, 99, 99},
		{1000, 99, 990},
		{7, 100, 7},
		{7, 0, 1},
		{1, 99, 1},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	f := func(total, children uint32) bool {
		s := selfTime(time.Duration(total), time.Duration(children))
		return s >= 0 && (children > total || s == time.Duration(total)-time.Duration(children))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if s := selfTime(3*time.Millisecond, 5*time.Millisecond); s != 0 {
		t.Errorf("selfTime(3ms, 5ms) = %v, want 0", s)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the registry must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	if len(bj.Workloads) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range bj.Workloads {
		if i < len(allWorkloads) && w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, registry %+v", i, m, d)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs one untraced and one traced
// unit of each workload and checks that every declared metric is
// measured, with fidelity identical between the two units.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range allWorkloads {
		name := wl.name
		var units []*unit
		for _, traced := range []bool{false, true} {
			u := newUnit(traced)
			if err := runUnit(u, workloadSeed(7), wl); err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if u.failed != 0 || u.ops == 0 {
				t.Errorf("%s (traced=%v): %d of %d operations failed", name, traced, u.failed, u.ops)
			}
			units = append(units, u)
		}
		if err := sameFidelity(units[0], units[1]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, traced := range []bool{false, true} {
			use := units
			if !traced {
				use = units[:1]
			}
			if _, err := aggregate(use, traced); err != nil {
				t.Errorf("%s (traced=%v): %v", name, traced, err)
			}
		}
	}
}
