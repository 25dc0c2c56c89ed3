package uarch

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/cache"
	_ "repro/internal/core" // registers rlr-mc
	"repro/internal/policy"
	"repro/internal/workloads"
)

// The golden digests pin the timing model: for every (workload, policy,
// cores) cell, the per-core Results, the dirty LLC victims written back to
// DRAM, and the order of every LLC replacement decision must stay
// byte-identical. A change that moves any of them, at any core count, is a
// change to the model and must re-record this table with its IPC, hit-rate
// and MPKI deltas documented.

// goldenCell is one pinned (workload, policy, cores) run.
type goldenCell struct {
	results    uint64 // FNV-64a of the []Result, binary little-endian
	wbToDRAM   uint64
	victims    int    // LLC Victim calls
	victimHash uint64 // FNV-64a of the (set, way) victim sequence
}

// goldenSeedStride separates the cores' streams of one benchmark: core i
// runs the benchmark from seed spec.Seed + i*goldenSeedStride.
const goldenSeedStride = 0x9E3779B97F4A7C15

const goldenWarmup, goldenMeasure = 4_000, 16_000

var golden = map[string]goldenCell{
	"429.mcf/lru/1":           {0xfbed90d9ac5af006, 744, 4909, 0x327faff4325b6870},
	"429.mcf/lru/2":           {0x19a7b55fd95b52db, 1496, 9783, 0xd1eed6bcf900d193},
	"429.mcf/lru/4":           {0xfbc051ca89337bc6, 3025, 19749, 0xe60e45a12c2226f7},
	"429.mcf/lru/8":           {0x1f66873bb32c9a87, 6014, 40347, 0x67b2aac9ea2e157d},
	"429.mcf/drrip/1":         {0x9eee8fc774bea13d, 411, 5162, 0xb92686d86be6b981},
	"429.mcf/drrip/2":         {0xc9131539a2ef065d, 1841, 10868, 0x7b3148a2f9034d11},
	"429.mcf/drrip/4":         {0x86254b0b9da733d8, 3750, 22008, 0x63ac33f45ce5e504},
	"429.mcf/drrip/8":         {0xaa401d1398282f82, 7795, 45291, 0x324a3b7c84524020},
	"429.mcf/ship/1":          {0x48bc5a565b1f9c13, 708, 5347, 0x2384044520fdd95c},
	"429.mcf/ship/2":          {0x5b4e47ce51232473, 872, 10644, 0x480dd0f2af07fb88},
	"429.mcf/ship/4":          {0x1730d3f474c2a2e9, 2615, 21348, 0x69d22142b90be156},
	"429.mcf/ship/8":          {0x1dbdbd24940ea208, 5787, 43604, 0xc83275cb62f360f0},
	"429.mcf/hawkeye/1":       {0xfd29d6bea410fe93, 1134, 5449, 0xacbd3a558204ac5d},
	"429.mcf/hawkeye/2":       {0x6e4afc1e6650ff3c, 2283, 10919, 0x6182606ce93f4e4},
	"429.mcf/hawkeye/4":       {0x876562aa2769f623, 4690, 22178, 0x5c6c8fabfa3911a},
	"429.mcf/hawkeye/8":       {0xc4862b23927ff13c, 9291, 45209, 0xae45d4c47ea32c8a},
	"470.lbm/lru/1":           {0x21ccacc4cefcae2b, 2039, 5345, 0x32f98ab44d168075},
	"470.lbm/lru/2":           {0xe50395fb2c118fcd, 4067, 10782, 0xd37d992265e42976},
	"470.lbm/lru/4":           {0x91670f04323cd16, 7800, 28007, 0xa41f48e69b1710af},
	"470.lbm/lru/8":           {0xa93973567c28ad72, 25095, 73366, 0xd0cdbec659526c5},
	"470.lbm/drrip/1":         {0xe22b870c5d92c1cc, 1487, 6319, 0x33d147dc819d27b6},
	"470.lbm/drrip/2":         {0xde88c4a58c038951, 2627, 12527, 0x9011210f481a7015},
	"470.lbm/drrip/4":         {0xbcda2caeab199da6, 9586, 28376, 0x61fda4a505525c29},
	"470.lbm/drrip/8":         {0x1ab206fd7bb91472, 27649, 69352, 0x85898c7f82122e44},
	"470.lbm/ship/1":          {0xb4ce21f670591bad, 2041, 7122, 0xa8cc8471e477176e},
	"470.lbm/ship/2":          {0xe53f32479d0c8fcd, 5009, 14147, 0x572d6479dbdfda73},
	"470.lbm/ship/4":          {0x1b27c7cd57a3cc6e, 10384, 28438, 0xea2eb49a2d636c49},
	"470.lbm/ship/8":          {0x68455e7cc789e132, 27831, 68229, 0x9aa3984cad1122f4},
	"470.lbm/hawkeye/1":       {0x74934794c4c47514, 3035, 7085, 0xccadc68ad609f5b7},
	"470.lbm/hawkeye/2":       {0xa425b19ec489ab0d, 5741, 13946, 0xb32fedbf29efd6ff},
	"470.lbm/hawkeye/4":       {0x617a3383fc500f0c, 11727, 27962, 0xbc23956b9923e34e},
	"470.lbm/hawkeye/8":       {0xdb3c7f49cf42bf0a, 29521, 68135, 0x86fe9fa928ad9f13},
	"483.xalancbmk/lru/1":     {0xe3ab5ad6c0a0f00f, 779, 5691, 0x4d46897572754b07},
	"483.xalancbmk/lru/2":     {0x38c410e9a1da8d25, 1601, 11179, 0xbb9db3e228ac66d5},
	"483.xalancbmk/lru/4":     {0x3387607c17d985f5, 3286, 22410, 0x71aafcf6412986ed},
	"483.xalancbmk/lru/8":     {0x951f52b97743b9c, 6788, 44903, 0x3461a81187c0da67},
	"483.xalancbmk/drrip/1":   {0x73e8719b8692bf50, 1133, 6224, 0x3dc8ff6e6c1f60c6},
	"483.xalancbmk/drrip/2":   {0xb4acee524b3bac86, 2293, 12316, 0x338e838d0f70aa3e},
	"483.xalancbmk/drrip/4":   {0x19492cc509e582e2, 4418, 24549, 0xc7e0b0f0a34a95b5},
	"483.xalancbmk/drrip/8":   {0xc94aacbc9e336093, 8361, 49282, 0x71ea928e0ec8db6c},
	"483.xalancbmk/ship/1":    {0x929f653073c9e77d, 466, 6099, 0x92e4f75aeb38712c},
	"483.xalancbmk/ship/2":    {0xe5cee47129e59849, 843, 11924, 0x48933622c6fa5bf0},
	"483.xalancbmk/ship/4":    {0x33aae1623be8f87a, 1793, 23375, 0xe46f07be80b6dceb},
	"483.xalancbmk/ship/8":    {0xf53b57b134457a23, 3410, 46222, 0x9054e25c2e667c0d},
	"483.xalancbmk/hawkeye/1": {0xe721f7432f779baf, 1425, 6444, 0x8c0199bcbb6b554c},
	"483.xalancbmk/hawkeye/2": {0x7a38ff9c4ab671ae, 2898, 12852, 0x7be66f1c6b74cc0d},
	"483.xalancbmk/hawkeye/4": {0x6cce1d7a0f0577b7, 5757, 25664, 0x62af4dda937a534a},
	"483.xalancbmk/hawkeye/8": {0x1db5a360bd972f02, 11440, 51022, 0x19a5113478cb8d46},
}

// victimRecorder forwards a policy and hashes every Victim decision in
// call order.
type victimRecorder struct {
	policy.Policy
	n   int
	buf [12]byte
	h   hash.Hash64
}

func newVictimRecorder(p policy.Policy) *victimRecorder {
	return &victimRecorder{Policy: p, h: fnv.New64a()}
}

func (r *victimRecorder) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	w := r.Policy.Victim(ctx, set)
	binary.LittleEndian.PutUint32(r.buf[:4], ctx.SetIdx)
	binary.LittleEndian.PutUint64(r.buf[4:], uint64(int64(w)))
	r.h.Write(r.buf[:])
	r.n++
	return w
}

// runGolden runs one cell from a fresh system and digests it.
func runGolden(t *testing.T, bench, pol string, cfg Config) goldenCell {
	t.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]InstrSource, cfg.Cores)
	for i := range srcs {
		sp := spec
		sp.Seed += uint64(i) * goldenSeedStride
		srcs[i] = workloads.New(sp)
	}
	rec := newVictimRecorder(policy.MustNew(pol))
	sys := NewSystem(cfg, rec)
	res := sys.RunMulti(srcs, goldenWarmup, goldenMeasure)
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, res); err != nil {
		t.Fatal(err)
	}
	return goldenCell{
		results:    h.Sum64(),
		wbToDRAM:   sys.h.wbToDRAM,
		victims:    rec.n,
		victimHash: rec.h.Sum64(),
	}
}

// TestGoldenDigests holds every uarch Result, wbToDRAM count and LLC
// victim sequence to the recorded digests at 1, 2, 4 and 8 cores.
func TestGoldenDigests(t *testing.T) {
	for _, bench := range []string{"429.mcf", "470.lbm", "483.xalancbmk"} {
		for _, pol := range []string{"lru", "drrip", "ship", "hawkeye"} {
			for _, cores := range []int{1, 2, 4, 8} {
				key := fmt.Sprintf("%s/%s/%d", bench, pol, cores)
				got := runGolden(t, bench, pol, ScaledConfig(cores, 8))
				if want, ok := golden[key]; !ok || got != want {
					t.Errorf("%s: digest moved\n\t%q: {%#x, %d, %d, %#x},",
						key, key, got.results, got.wbToDRAM, got.victims, got.victimHash)
				}
			}
		}
	}
}

// TestGoldenDigestsKPCP pins the KPC-P prefetcher path (confidence-gated
// L2 fills, prefetches that stop at the LLC) on a code-heavy workload.
func TestGoldenDigestsKPCP(t *testing.T) {
	want := map[int]goldenCell{
		1: {0xfef1ecc1b3282405, 91, 670, 0x29dcaeba57902587},
		4: {0x4c11a41347e7cdb8, 315, 2509, 0xa95ad0011c539a16},
	}
	for _, cores := range []int{1, 4} {
		cfg := ScaledConfig(cores, 8)
		cfg.L2Prefetcher = "kpc-p"
		got := runGolden(t, "403.gcc", "drrip", cfg)
		if w, ok := want[cores]; !ok || got != w {
			t.Errorf("403.gcc/drrip/kpc-p/%d: digest moved\n\t%d: {%#x, %d, %d, %#x},",
				cores, cores, got.results, got.wbToDRAM, got.victims, got.victimHash)
		}
	}
}

// TestGoldenDigestsRLRMC pins the benchmark's own timing config: rlr-mc in
// the LLC of ScaledConfig(4, 8), as perfbench's uarch path and fig13 run it.
func TestGoldenDigestsRLRMC(t *testing.T) {
	want := map[string]goldenCell{
		"429.mcf/rlr-mc/4":       {0x5e82aeb8d3b9de84, 2260, 20748, 0x6f6cf360a5b5cd11},
		"483.xalancbmk/rlr-mc/4": {0xbd2e63744905ddae, 2509, 22829, 0x8a3ad3f3217370b3},
	}
	for _, bench := range []string{"429.mcf", "483.xalancbmk"} {
		key := bench + "/rlr-mc/4"
		got := runGolden(t, bench, "rlr-mc", ScaledConfig(4, 8))
		if w, ok := want[key]; !ok || got != w {
			t.Errorf("%s: digest moved\n\t%q: {%#x, %d, %d, %#x},",
				key, key, got.results, got.wbToDRAM, got.victims, got.victimHash)
		}
	}
}
