// Command check runs the differential correctness sweep: every production
// policy that has a reference model (internal/refmodel) is replayed
// lock-step against that reference over a grid of cache geometries, trace
// classes, and seeds, with the simulator's invariant checker enabled. On
// the first divergence it shrinks the failing trace to a minimal
// counterexample, prints it in the replayable format, and exits nonzero.
//
//	go run ./cmd/check                 # full sweep (what `make check` runs)
//	go run ./cmd/check -pair drrip     # one policy only
//	go run ./cmd/check -seeds 32 -n 10000
//	go run ./cmd/check -replay ce.txt  # re-run a saved counterexample
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/refmodel"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 8, "seeds per (pair, geometry, class) cell")
		n        = flag.Int("n", 3000, "accesses per trace (Belady pairs are capped internally)")
		pairName = flag.String("pair", "", "run only this pair (default: all)")
		class    = flag.String("class", "", "run only this trace class (default: all)")
		replay   = flag.String("replay", "", "replay a saved counterexample file instead of sweeping")
		noShrink = flag.Bool("noshrink", false, "print the raw divergence without minimizing")
		verbose  = flag.Bool("v", false, "print every cell as it runs")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay, *noShrink))
	}
	os.Exit(runSweep(*pairName, *class, *seeds, *n, *noShrink, *verbose))
}

// geometries is the sweep's cache-shape grid: the degenerate single- and
// two-set caches that DRRIP's leader placement used to collapse on, small
// high-conflict shapes, and one production-like shape.
var geometries = []cache.Config{
	{Sets: 1, Ways: 2, LineSize: 64},
	{Sets: 2, Ways: 2, LineSize: 64},
	{Sets: 4, Ways: 4, LineSize: 64},
	{Sets: 16, Ways: 4, LineSize: 64},
	{Sets: 64, Ways: 8, LineSize: 64},
}

func runSweep(pairFilter, classFilter string, seeds, n int, noShrink, verbose bool) int {
	pairs := refmodel.Pairs()
	if pairFilter != "" {
		p, ok := refmodel.PairByName(pairFilter)
		if !ok {
			names := make([]string, len(pairs))
			for i, q := range pairs {
				names[i] = q.Name
			}
			fmt.Fprintf(os.Stderr, "check: unknown pair %q (known: %s)\n",
				pairFilter, strings.Join(names, ", "))
			return 2
		}
		pairs = []refmodel.Pair{p}
	}
	classes := refmodel.Classes()
	if classFilter != "" {
		kept := classes[:0]
		for _, c := range classes {
			if c.Name == classFilter {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "check: unknown trace class %q\n", classFilter)
			return 2
		}
		classes = kept
	}

	cells := 0
	for _, pair := range pairs {
		for _, cls := range classes {
			for _, cfg := range geometries {
				for seed := 0; seed < seeds; seed++ {
					tr := cls.Gen(uint64(seed), n)
					if verbose {
						fmt.Printf("check: %s / %s / %dx%d / seed %d (%d accesses)\n",
							pair.Name, cls.Name, cfg.Sets, cfg.Ways, seed, len(tr))
					}
					d := refmodel.Diff(pair, cfg, tr)
					cells++
					if d == nil {
						continue
					}
					fmt.Fprintf(os.Stderr,
						"check: DIVERGENCE pair=%s class=%s geometry=%dx%d seed=%d\n",
						pair.Name, cls.Name, cfg.Sets, cfg.Ways, seed)
					if !noShrink {
						fmt.Fprintf(os.Stderr, "check: shrinking %d-access trace...\n", len(d.Accesses))
						d = refmodel.Shrink(pair, d)
					}
					fmt.Fprint(os.Stderr, d.String())
					fmt.Fprintln(os.Stderr,
						"check: save the lines above and re-run with -replay FILE to reproduce")
					return 1
				}
			}
		}
	}
	fmt.Printf("check: ok — %d pairs x %d classes x %d geometries x %d seeds = %d cells, no divergence\n",
		len(pairs), len(classes), len(geometries), seeds, cells)
	return 0
}

func runReplay(path string, noShrink bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: %v\n", err)
		return 2
	}
	defer f.Close()
	ce, err := refmodel.ParseCounterexample(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: parsing %s: %v\n", path, err)
		return 2
	}
	pair, ok := refmodel.PairByName(ce.Pair)
	if !ok {
		fmt.Fprintf(os.Stderr, "check: counterexample names unknown pair %q\n", ce.Pair)
		return 2
	}
	d := refmodel.Diff(pair, ce.Cfg, ce.Accesses)
	if d == nil {
		fmt.Printf("check: %s replays clean — %d accesses of %s on %dx%d agree\n",
			path, len(ce.Accesses), ce.Pair, ce.Cfg.Sets, ce.Cfg.Ways)
		return 0
	}
	if !noShrink {
		d = refmodel.Shrink(pair, d)
	}
	fmt.Fprint(os.Stderr, d.String())
	return 1
}
