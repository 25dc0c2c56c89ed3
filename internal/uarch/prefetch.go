package uarch

import "repro/internal/xrand"

// Prefetcher is a per-level prefetch engine. OnAccess observes a demand
// access and returns block-aligned addresses to prefetch; Confidence
// reports whether addr was (or would be) prefetched with high confidence —
// the signal KPC-R's promotion gate consumes.
type Prefetcher interface {
	Name() string
	OnAccess(pc, addr uint64, hit bool) []uint64
	Confidence(addr uint64) bool
}

// nonePrefetcher issues nothing.
type nonePrefetcher struct{}

func (nonePrefetcher) Name() string                          { return "none" }
func (nonePrefetcher) OnAccess(_, _ uint64, _ bool) []uint64 { return nil }
func (nonePrefetcher) Confidence(uint64) bool                { return false }

// NextLine prefetches the next cache line on every miss — the Table III L1
// prefetcher.
type NextLine struct{}

// Name implements Prefetcher.
func (NextLine) Name() string { return "next-line" }

// OnAccess implements Prefetcher.
func (NextLine) OnAccess(_, addr uint64, hit bool) []uint64 {
	if hit {
		return nil
	}
	return []uint64{addr + 64}
}

// Confidence implements Prefetcher.
func (NextLine) Confidence(uint64) bool { return false }

// ipEntry is one IP-stride table entry.
type ipEntry struct {
	tag       uint32
	lastBlock uint64
	stride    int64
	conf      uint8
}

// IPStride is the Table III L2 prefetcher: a 64-entry PC-indexed stride
// table with 2-bit confidence; at confidence ≥ 2 it issues `degree`
// prefetches along the detected stride.
type IPStride struct {
	table  [64]ipEntry
	degree int
}

// NewIPStride returns an IP-stride prefetcher of the given degree
// (ChampSim's default degree is 2).
func NewIPStride(degree int) *IPStride {
	if degree <= 0 {
		degree = 2
	}
	return &IPStride{degree: degree}
}

// Name implements Prefetcher.
func (*IPStride) Name() string { return "ip-stride" }

// OnAccess implements Prefetcher.
func (p *IPStride) OnAccess(pc, addr uint64, hit bool) []uint64 {
	block := addr >> 6
	h := xrand.Mix64(pc)
	idx := h & 63
	tag := uint32(h >> 6)
	e := &p.table[idx]
	if e.tag != tag {
		*e = ipEntry{tag: tag, lastBlock: block}
		return nil
	}
	stride := int64(block) - int64(e.lastBlock)
	if stride == 0 {
		return nil // same-line access: no training signal
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		}
		if e.conf == 0 {
			e.stride = stride
		}
	}
	e.lastBlock = block
	if e.conf < 2 || e.stride == 0 {
		return nil
	}
	out := make([]uint64, 0, p.degree)
	for d := 1; d <= p.degree; d++ {
		nb := int64(block) + e.stride*int64(d)
		if nb <= 0 {
			break
		}
		out = append(out, uint64(nb)<<6)
	}
	return out
}

// Confidence implements Prefetcher: IP-stride exposes no per-address
// confidence, matching the paper's baseline (KPC-R's gate stays closed).
func (*IPStride) Confidence(uint64) bool { return false }

// KPCP approximates the KPC-P prefetcher of Kim et al. [19]: a PC-localized
// stride/lookahead engine with a 4-bit per-entry confidence counter. Its
// two pollution-avoidance behaviours drive the §V-B comparison:
//
//  1. prefetches below the L2-fill threshold are not installed in L2 (the
//     hierarchy queries FillL2), only in the LLC;
//  2. per-address high-confidence is queryable (Confidence) so KPC-R can
//     gate LLC promotion on it.
type KPCP struct {
	table  [256]kpcEntry
	issued map[uint64]uint8 // recently issued prefetch block → confidence
	degree int
	fifo   []uint64
}

type kpcEntry struct {
	tag       uint32
	lastBlock uint64
	stride    int64
	conf      uint8 // 4-bit
}

// kpcL2Threshold is the confidence needed to fill L2 (pollution gate 1);
// kpcHighConf marks "high confidence" for promotion (gate 2).
const (
	kpcL2Threshold = 6
	kpcHighConf    = 10
)

// NewKPCP returns a KPC-P prefetcher of the given degree.
func NewKPCP(degree int) *KPCP {
	if degree <= 0 {
		degree = 2
	}
	return &KPCP{degree: degree, issued: make(map[uint64]uint8)}
}

// Name implements Prefetcher.
func (*KPCP) Name() string { return "kpc-p" }

// OnAccess implements Prefetcher.
func (p *KPCP) OnAccess(pc, addr uint64, hit bool) []uint64 {
	block := addr >> 6
	h := xrand.Mix64(pc)
	idx := h & 255
	tag := uint32(h >> 8)
	e := &p.table[idx]
	if e.tag != tag {
		*e = kpcEntry{tag: tag, lastBlock: block}
		return nil
	}
	stride := int64(block) - int64(e.lastBlock)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 15 {
			e.conf++
		}
	} else {
		if e.conf >= 2 {
			e.conf -= 2
		} else {
			e.conf = 0
		}
		if e.conf == 0 {
			e.stride = stride
		}
	}
	e.lastBlock = block
	if e.conf < 2 || e.stride == 0 {
		return nil
	}
	// Lookahead scales with confidence (KPC-P's ramping degree).
	deg := p.degree
	if e.conf >= kpcHighConf {
		deg *= 2
	}
	out := make([]uint64, 0, deg)
	for d := 1; d <= deg; d++ {
		nb := int64(block) + e.stride*int64(d)
		if nb <= 0 {
			break
		}
		a := uint64(nb) << 6
		out = append(out, a)
		p.remember(a>>6, e.conf)
	}
	return out
}

func (p *KPCP) remember(block uint64, conf uint8) {
	if _, ok := p.issued[block]; !ok {
		p.fifo = append(p.fifo, block)
		if len(p.fifo) > 4096 {
			old := p.fifo[0]
			p.fifo = p.fifo[1:]
			delete(p.issued, old)
		}
	}
	p.issued[block] = conf
}

// Confidence implements Prefetcher: true when addr was prefetched with
// high confidence (KPC-R's promotion gate).
func (p *KPCP) Confidence(addr uint64) bool {
	return p.issued[addr>>6] >= kpcHighConf
}

// FillL2 reports whether a prefetch to addr should be installed in L2
// (KPC-P pollution gate 1): only prefetches issued at or above the L2-fill
// confidence threshold pollute L2; the rest go only to the LLC.
func (p *KPCP) FillL2(addr uint64) bool {
	return p.issued[addr>>6] >= kpcL2Threshold
}

// newPrefetcher builds the configured L2 prefetcher. It panics on an
// unknown kind ("", "none", "ip-stride", and "kpc-p" are valid).
func newPrefetcher(kind string) Prefetcher {
	switch kind {
	case "", "none":
		return nonePrefetcher{}
	case "ip-stride":
		return NewIPStride(2)
	case "kpc-p":
		return NewKPCP(2)
	default:
		panic("uarch: unknown prefetcher " + kind)
	}
}
