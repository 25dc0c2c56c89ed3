// Package workloads provides the synthetic benchmark suite standing in for
// the SPEC CPU 2006 and CloudSuite traces the paper evaluates on (see the
// substitution table in DESIGN.md).
//
// Each workload is a deterministic, seeded generator of an infinite
// instruction stream (trace.Instr). The generators are engineered per
// benchmark to land in that benchmark's qualitative LLC regime — streaming
// (lbm, libquantum, bwaves), pointer-chasing (mcf, astar, omnetpp), stencil
// (GemsFDTD, leslie3d, zeusmp, cactusADM), phased working sets (gcc),
// skewed hot/cold (xalancbmk, bzip2), and cache-resident (povray, gamess,
// namd, …) — because replacement-policy rankings are driven by these
// access-pattern classes, not instruction semantics.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Suite identifies the benchmark family a workload models.
type Suite int

// The two benchmark suites of §V-A.
const (
	SPEC Suite = iota
	CloudSuite
)

// String returns the suite's display name.
func (s Suite) String() string {
	if s == CloudSuite {
		return "cloudsuite"
	}
	return "spec2006"
}

// Generator produces an infinite, deterministic instruction stream.
type Generator interface {
	// Name returns the benchmark name (e.g. "429.mcf").
	Name() string
	// Suite returns which suite the benchmark models.
	Suite() Suite
	// Next returns the next instruction.
	Next() trace.Instr
}

// Pattern is a memory access pattern class.
type Pattern int

// Access pattern classes used by the phase specs.
const (
	// PatternStream walks one or more arrays sequentially with a fixed
	// stride — lbm/libquantum/bwaves-like. Reuse distance ~ footprint.
	PatternStream Pattern = iota
	// PatternPointerChase follows a fixed random permutation over the
	// footprint — mcf/astar-like. Near-uniform reuse at footprint scale.
	PatternPointerChase
	// PatternZipf draws blocks from a Zipf distribution — skewed hot/cold
	// working sets (xalancbmk, bzip2, omnetpp's data structures).
	PatternZipf
	// PatternStencil walks several arrays in lockstep with small
	// neighbourhood re-touches — GemsFDTD/leslie3d/zeusmp-like.
	PatternStencil
	// PatternUniform draws blocks uniformly over the footprint.
	PatternUniform
)

// Phase describes one program phase of a workload.
type Phase struct {
	// Instructions is the phase length; the generator cycles through its
	// phases forever.
	Instructions int
	// Pattern selects the access pattern class.
	Pattern Pattern
	// FootprintKB is the data footprint touched by the phase.
	FootprintKB int
	// StrideBytes is the streaming stride (PatternStream/PatternStencil).
	StrideBytes int
	// Streams is the number of concurrent streams (stream/stencil).
	Streams int
	// ZipfS is the skew exponent for PatternZipf.
	ZipfS float64
	// ReuseTouches re-touches the previous block this many times
	// (modelling stencil neighbourhood reuse and short loops).
	ReuseTouches int
	// IrregularPct diverts this fraction of memory operations to a
	// separate Zipf-skewed region of IrregularKB, modelling the irregular
	// metadata/index structures real programs interleave with their
	// regular sweeps. Because it is not stride-predictable, it is what
	// produces demand reuse at the LLC (prefetchers cover the sweeps).
	IrregularPct float64
	// IrregularKB is the irregular region's footprint (defaults to 2MB
	// when IrregularPct > 0).
	IrregularKB int
}

// Spec fully describes a synthetic workload.
type Spec struct {
	Name  string
	Suite Suite
	// MemRatio is the fraction of instructions with a memory operand.
	MemRatio float64
	// StoreRatio is the fraction of memory operations that are stores.
	StoreRatio float64
	// CodeFootprint is the number of distinct instruction PCs cycled
	// through (CloudSuite's large code footprints matter for the I-side).
	CodeFootprint int
	Phases        []Phase
	// Seed decorrelates workloads that share a pattern.
	Seed uint64
}

// generator implements Generator for a Spec.
type generator struct {
	spec Spec
	rng  *xrand.Rand

	phaseIdx  int
	phaseLeft int

	// pattern state
	cursor   []uint64 // per-stream position (blocks)
	perm     []uint32 // pointer-chase permutation over node clusters
	permPos  uint32
	nodeOff  int // position within the current chase node's blocks
	zipf     *xrand.Zipf
	irrZipf  *xrand.Zipf
	lastBlk  uint64
	lastSrc  int
	retouch  int
	codeBase uint64
	dataBase uint64
	pcPos    int
}

// Access-source ids: real programs touch each data structure from a small,
// dedicated set of load/store instructions, which is exactly the signal
// PC-based policies (SHiP, Hawkeye) learn from. The generator therefore
// derives each memory operation's PC from the structure it accesses.
const (
	srcStreamBase = 0  // +stream index (streams/stencils)
	srcChase      = 24 // pointer-chase walks
	srcZipf       = 28 // skewed working-set accesses
	srcUniform    = 32 // uniform scatter
	srcIrregular  = 36 // the irregular side-structure
)

// chaseNodeBlocks is the spatial extent of one pointer-chase node in cache
// lines: traversals touch a node's fields (2 consecutive lines) before
// following the next pointer, giving prefetchers the short-lead spatial
// reuse real heap walks exhibit.
const chaseNodeBlocks = 2

// New instantiates the generator for a spec. It panics on an empty phase
// list, which is a programming error in the table below.
func New(spec Spec) Generator {
	if len(spec.Phases) == 0 {
		panic(fmt.Sprintf("workloads: spec %q has no phases", spec.Name))
	}
	if spec.CodeFootprint <= 0 {
		spec.CodeFootprint = 256
	}
	g := &generator{
		spec: spec,
		rng:  xrand.New(xrand.Mix64(spec.Seed ^ 0xabcdef)),
		// Distinct per-workload code and data bases: different "binaries"
		// must not alias PCs or data, which matters for PC-based policies
		// in multicore mixes.
		codeBase: 0x400000 + (xrand.Mix64(spec.Seed)&0xFFFF)<<20,
		dataBase: 0x1_0000_0000 + (xrand.Mix64(spec.Seed^1)&0xFFFF)<<34,
	}
	g.enterPhase(0)
	return g
}

func (g *generator) Name() string { return g.spec.Name }
func (g *generator) Suite() Suite { return g.spec.Suite }

func (g *generator) phase() *Phase { return &g.spec.Phases[g.phaseIdx] }

func (g *generator) enterPhase(idx int) {
	g.phaseIdx = idx
	ph := g.phase()
	g.phaseLeft = ph.Instructions
	blocks := uint64(ph.FootprintKB) * 1024 / 64
	if blocks == 0 {
		blocks = 1
	}
	streams := ph.Streams
	if streams <= 0 {
		streams = 1
	}
	g.cursor = make([]uint64, streams)
	for i := range g.cursor {
		g.cursor[i] = uint64(i) * blocks / uint64(streams)
	}
	switch ph.Pattern {
	case PatternPointerChase:
		// Build (or reuse) a single-cycle permutation over the phase's
		// node clusters: each node spans chaseNodeBlocks consecutive blocks
		// (real heap traversals touch multi-word nodes, which is what makes
		// next-line prefetching promptly useful on them). Bound the size
		// for memory sanity; footprints beyond 64MB wrap.
		n := blocks / chaseNodeBlocks
		if n > 1<<20 {
			n = 1 << 20
		}
		if n == 0 {
			n = 1
		}
		if uint64(len(g.perm)) != n {
			g.perm = make([]uint32, n)
			prng := xrand.New(xrand.Mix64(g.spec.Seed ^ 0x9e37))
			p := prng.Perm(int(n))
			for i := 0; i < int(n); i++ {
				g.perm[p[i]] = uint32(p[(i+1)%int(n)])
			}
		}
		g.permPos = 0
		g.nodeOff = 0
	case PatternZipf:
		n := int(blocks)
		if n > 1<<18 {
			n = 1 << 18
		}
		g.zipf = xrand.NewZipf(xrand.New(xrand.Mix64(g.spec.Seed^uint64(idx))), n, ph.ZipfS)
	}
	g.irrZipf = nil
	if ph.IrregularPct > 0 {
		kb := ph.IrregularKB
		if kb <= 0 {
			kb = 2048
		}
		n := kb * 1024 / 64
		if n > 1<<18 {
			n = 1 << 18
		}
		g.irrZipf = xrand.NewZipf(xrand.New(xrand.Mix64(g.spec.Seed^0x1223^uint64(idx))), n, 0.7)
	}
	g.retouch = 0
}

// nextBlock produces the next data block offset (in blocks) for the phase.
func (g *generator) nextBlock() uint64 {
	ph := g.phase()
	blocks := uint64(ph.FootprintKB) * 1024 / 64
	if blocks == 0 {
		blocks = 1
	}
	if g.retouch > 0 {
		g.retouch--
		return g.lastBlk
	}
	if g.irrZipf != nil && g.rng.Float64() < ph.IrregularPct {
		// Irregular side-structure: offset past the phase footprint so it
		// never aliases the sweep data.
		blk := blocks + uint64(g.irrZipf.Next())
		g.lastBlk = blk
		g.lastSrc = srcIrregular
		return blk
	}
	var blk uint64
	switch ph.Pattern {
	case PatternStream, PatternStencil:
		s := g.rng.Intn(len(g.cursor))
		stride := uint64(ph.StrideBytes) / 64
		if stride == 0 {
			stride = 1
		}
		g.cursor[s] = (g.cursor[s] + stride) % blocks
		blk = g.cursor[s]
		g.lastSrc = srcStreamBase + s%24
		if ph.Pattern == PatternStencil && ph.ReuseTouches > 0 {
			g.retouch = ph.ReuseTouches
		}
	case PatternPointerChase:
		g.nodeOff++
		if g.nodeOff >= chaseNodeBlocks {
			g.permPos = g.perm[g.permPos]
			g.nodeOff = 0
		}
		blk = (uint64(g.permPos)*chaseNodeBlocks + uint64(g.nodeOff)) % blocks
		g.lastSrc = srcChase
	case PatternZipf:
		blk = uint64(g.zipf.Next())
		g.lastSrc = srcZipf
	default: // PatternUniform
		blk = g.rng.Uint64n(blocks)
		g.lastSrc = srcUniform
	}
	if ph.Pattern != PatternStencil && ph.ReuseTouches > 0 && g.rng.Intn(4) == 0 {
		g.retouch = ph.ReuseTouches
	}
	g.lastBlk = blk
	return blk
}

// Next implements Generator.
func (g *generator) Next() trace.Instr {
	if g.phaseLeft <= 0 {
		g.enterPhase((g.phaseIdx + 1) % len(g.spec.Phases))
	}
	g.phaseLeft--

	// Instruction PC: cycle through the code footprint with small loops.
	g.pcPos++
	if g.pcPos >= g.spec.CodeFootprint {
		g.pcPos = 0
	}
	pc := g.codeBase + uint64(g.pcPos)*4 + uint64(g.phaseIdx)<<18

	if g.rng.Float64() >= g.spec.MemRatio {
		return trace.Instr{PC: pc, Kind: trace.MemNone}
	}
	ph := g.phase()
	blk := g.nextBlock()
	addr := g.dataBase + blk*64 + uint64(g.rng.Intn(8))*8
	kind := trace.MemLoad
	switch {
	case g.rng.Float64() < g.spec.StoreRatio:
		kind = trace.MemStore
	case ph.Pattern == PatternPointerChase && g.lastSrc == srcChase && g.nodeOff == 0:
		// The first access of each chase node is address-dependent on the
		// previous node's pointer; further fields of the same node (and
		// irregular index lookups) issue independently.
		kind = trace.MemLoadDep
	}
	// Memory-operation PCs identify the accessed structure (a handful of
	// instructions per structure per phase), the correlation PC-based
	// replacement policies rely on.
	memPC := g.codeBase + 0x100000 + uint64(g.phaseIdx)<<12 +
		uint64(g.lastSrc)<<5 + uint64(g.rng.Intn(4))*4
	return trace.Instr{PC: memPC, Addr: addr, Kind: kind}
}

// Generate materializes n instructions from a fresh generator of the spec.
func Generate(spec Spec, n int) []trace.Instr {
	g := New(spec)
	out := make([]trace.Instr, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// LLCAccesses derives an LLC access stream of n records directly from the
// spec's instruction stream: every memory operation becomes one access
// (loads and dependent loads as LD, stores as RFO), with no upper-level
// cache filtering or timing. It is NOT the trace the experiments replay
// (that is CaptureLLCTrace, which runs the timing hierarchy); it exists so
// the differential correctness harness can exercise policies with each
// workload class's real address and PC structure at a fraction of the cost.
func LLCAccesses(spec Spec, n int) []trace.Access {
	g := New(spec)
	out := make([]trace.Access, 0, n)
	for len(out) < n {
		in := g.Next()
		if in.Kind == trace.MemNone {
			continue
		}
		ty := trace.Load
		if in.Kind == trace.MemStore {
			ty = trace.RFO
		}
		out = append(out, trace.Access{PC: in.PC, Addr: in.Addr, Type: ty})
	}
	return out
}

// ByName returns the registered spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names returns all registered workload names, SPEC first, each suite
// sorted.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SPECNames returns the 29 SPEC-2006-like workload names, sorted.
func SPECNames() []string { return suiteNames(SPEC) }

// CloudNames returns the 5 CloudSuite-like workload names, sorted.
func CloudNames() []string { return suiteNames(CloudSuite) }

func suiteNames(s Suite) []string {
	var out []string
	for _, sp := range All() {
		if sp.Suite == s {
			out = append(out, sp.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TrainingNames returns the 8 benchmarks used for RL training (§III-B,
// Figure 3): those with a large Belady-vs-LRU hit-rate gap.
func TrainingNames() []string {
	return []string{
		"459.GemsFDTD", "403.gcc", "429.mcf", "450.soplex",
		"470.lbm", "437.leslie3d", "471.omnetpp", "483.xalancbmk",
	}
}

// Mixes returns n pseudo-random 4-benchmark mixes over the SPEC suite for
// the 4-core evaluation (§V-A: 100 random sets of four benchmarks from the
// 29 applications).
func Mixes(n int, seed uint64) [][]string { return MixesN(n, 4, seed) }

// MixesN returns n pseudo-random size-benchmark mixes over the SPEC
// suite — the N-core generalization the mcscale experiment uses
// (8/16-core mixes beyond the paper's 4-core table). MixesN(n, 4, seed)
// is byte-identical to the historical Mixes(n, seed).
func MixesN(n, size int, seed uint64) [][]string {
	names := SPECNames()
	rng := xrand.New(seed)
	out := make([][]string, n)
	for i := range out {
		mix := make([]string, size)
		for j := range mix {
			mix[j] = names[rng.Intn(len(names))]
		}
		out[i] = mix
	}
	return out
}
