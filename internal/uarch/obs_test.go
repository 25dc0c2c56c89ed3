package uarch

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// streamDigest is an obs.Hook that hashes every field of every cache
// event in emission order and counts events per level.
type streamDigest struct {
	n       int
	h       hash.Hash64
	buf     []byte
	byLevel map[string]int
}

func newStreamDigest() *streamDigest {
	return &streamDigest{h: fnv.New64a(), byLevel: map[string]int{}}
}

func (d *streamDigest) OnCacheEvent(e *obs.CacheEvent) {
	b := append(d.buf[:0], byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, e.PC)
	b = binary.LittleEndian.AppendUint64(b, e.Addr)
	b = append(b, e.Type)
	b = binary.LittleEndian.AppendUint32(b, e.Set)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.Way)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Policy)))
	b = append(b, e.Policy...)
	b = binary.LittleEndian.AppendUint64(b, e.VictimBlock)
	dirty := byte(0)
	if e.VictimDirty {
		dirty = 1
	}
	b = append(b, dirty)
	b = binary.LittleEndian.AppendUint32(b, e.VictimAge)
	b = binary.LittleEndian.AppendUint32(b, e.VictimPreuse)
	b = binary.LittleEndian.AppendUint32(b, e.VictimHits)
	b = append(b, e.VictimRecency, e.VictimLastType)
	d.h.Write(b)
	d.buf = b
	d.n++
	d.byLevel[e.Policy]++
}

// withGlobalHook installs hook for the duration of build, which is where
// the hierarchy picks it up.
func withGlobalHook(hook obs.Hook, build func()) {
	obs.SetGlobalHook(hook)
	defer obs.SetGlobalHook(nil)
	build()
}

// TestObsStreamGolden pins the 1-core per-level cache-event stream
// (429.mcf, drrip) byte for byte: every field of every event, in order.
// The digest was recorded from the discrete-event engine this package's
// emission replaced, which tagged the same four levels.
func TestObsStreamGolden(t *testing.T) {
	spec, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(hook obs.Hook) Result {
		var sys *System
		withGlobalHook(hook, func() {
			sys = NewSystem(ScaledConfig(1, 8), policy.MustNew("drrip"))
		})
		return sys.RunSingle(workloads.New(spec), 4_000, 16_000)
	}
	d := newStreamDigest()
	hooked := run(d)
	if plain := run(nil); plain != hooked {
		t.Fatalf("obs hook perturbed the run: %+v vs %+v", plain, hooked)
	}
	const wantN, wantHash = 67605, 0x3bad6bb00e46626
	wantByLevel := map[string]int{"core0.l1i": 11070, "core0.l1d": 17186, "core0.l2": 19199, "llc": 20150}
	if d.n != wantN || d.h.Sum64() != wantHash {
		t.Errorf("event stream moved: %d events hash %#x, want %d events hash %#x",
			d.n, d.h.Sum64(), wantN, uint64(wantHash))
	}
	if !reflect.DeepEqual(d.byLevel, wantByLevel) {
		t.Errorf("per-level event counts %v, want %v", d.byLevel, wantByLevel)
	}
}

// levelHook tallies per-level event streams and checks the sequence-number
// contract: LLC events carry the LLC access sequence, in order; the private
// levels carry 0.
type levelHook struct {
	t       *testing.T
	byLevel map[string]int
	lastSeq uint64
}

func (h *levelHook) OnCacheEvent(e *obs.CacheEvent) {
	h.byLevel[e.Policy]++
	if e.Policy == "llc" {
		if e.Seq < h.lastSeq {
			h.t.Errorf("llc seq went backwards: %d after %d", e.Seq, h.lastSeq)
		}
		h.lastSeq = e.Seq
	} else if e.Seq != 0 {
		h.t.Errorf("%s event carries seq %d, want 0", e.Policy, e.Seq)
	}
}

// TestObsHookSeesPerComponentStreams: with a global obs hook installed,
// every level of a 2-core system emits tagged cache events, and observing
// must not perturb the simulation (byte-identical Results with the hook on
// and off).
func TestObsHookSeesPerComponentStreams(t *testing.T) {
	run := func(hook obs.Hook) []Result {
		var sys *System
		withGlobalHook(hook, func() {
			sys = NewSystem(ScaledConfig(2, 16), policy.MustNew("lru"))
		})
		srcs := make([]InstrSource, 2)
		for i, name := range []string{"429.mcf", "470.lbm"} {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = workloads.New(spec)
		}
		return sys.RunMulti(srcs, 1_000, 6_000)
	}
	plain := run(nil)
	h := &levelHook{t: t, byLevel: map[string]int{}}
	hooked := run(h)
	if !reflect.DeepEqual(plain, hooked) {
		t.Fatalf("obs hook perturbed the run: %+v vs %+v", plain, hooked)
	}
	want := []string{"core0.l1i", "core0.l1d", "core0.l2", "core1.l1i", "core1.l1d", "core1.l2", "llc"}
	for _, lvl := range want {
		if h.byLevel[lvl] == 0 {
			t.Errorf("level %s emitted no cache events", lvl)
		}
	}
	if len(h.byLevel) != len(want) {
		t.Errorf("events from levels %v, want exactly %s", h.byLevel, strings.Join(want, ", "))
	}
}
