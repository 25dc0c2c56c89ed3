package uarch

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
)

// LLCObserver is called for every LLC access the hierarchy performs; the
// trace-generation path (§III-A) and the experiment stats both hang off it.
type LLCObserver func(a trace.Access, hit bool)

// level is one cache level with an MSHR-style in-flight timing table: a
// private L1I, L1D, or L2 with LRU replacement (Table III), or the shared
// LLC. name tags the level's obs events ("core0.l1d", "llc").
type level struct {
	name     string
	c        *cache.Cache
	latency  uint64
	inflight map[uint64]uint64 // block → ready time
	mshrs    int
}

func newLevel(name string, cfg cache.Config, latency uint64, mshrs int) *level {
	return &level{
		name:     name,
		c:        cache.New(cfg),
		latency:  latency,
		inflight: make(map[uint64]uint64),
		mshrs:    mshrs,
	}
}

// mshrLookup returns the in-flight ready time for addr's block, if any.
func (l *level) mshrLookup(addr, now uint64) (uint64, bool) {
	ready, ok := l.inflight[addr>>6]
	if !ok {
		return 0, false
	}
	if ready <= now {
		delete(l.inflight, addr>>6)
		return 0, false
	}
	return ready, true
}

// mshrInsert records an in-flight miss. Under pressure the table drops
// every already-completed entry (ready <= now) — a value-conditioned
// sweep, so the timing model stays deterministic (map iteration order
// must never pick which entry survives) and still-in-flight entries are
// never lost to a later miss's insert.
func (l *level) mshrInsert(addr, now, ready uint64) {
	if len(l.inflight) >= l.mshrs {
		for k, v := range l.inflight {
			if v <= now {
				delete(l.inflight, k)
			}
		}
		if len(l.inflight) >= 4*l.mshrs {
			l.inflight = make(map[uint64]uint64)
		}
	}
	l.inflight[addr>>6] = ready
}

// lruVictim selects the least recently used way of a full set.
func lruVictim(set *cache.Set) int {
	best, bestRec := 0, int(^uint(0)>>1)
	for w := range set.Lines {
		if r := int(set.Lines[w].Recency); r < bestRec {
			best, bestRec = w, r
		}
	}
	return best
}

// LLCStats aggregates LLC behaviour during a timing run.
type LLCStats struct {
	Accesses     uint64
	Hits         uint64
	DemandHits   uint64
	DemandMisses uint64
	ByType       [trace.NumAccessTypes]uint64
	HitsByType   [trace.NumAccessTypes]uint64
}

// Hierarchy is the full Table III memory system: per-core L1I/L1D/L2 over a
// shared LLC whose replacement policy is pluggable.
type Hierarchy struct {
	cfg    Config
	l1i    []*level
	l1d    []*level
	l2     []*level
	l2pf   []Prefetcher
	kpcp   []*KPCP // non-nil when the L2 prefetcher is KPC-P
	llc    *level
	pol    policy.Policy
	llcSeq uint64

	observer LLCObserver
	stats    LLCStats
	wbToDRAM uint64 // dirty LLC victims written back to memory

	// hook is picked up from obs.GlobalHook at construction; every level
	// access then emits Hit/Miss/Fill records tagged with the level name.
	hook obs.Hook
	ev   obs.CacheEvent // scratch record, reused across emissions
}

// NewHierarchy builds the memory system. The policy is Init-ed against the
// LLC geometry. pol may be nil, which selects LRU.
func NewHierarchy(cfg Config, pol policy.Policy) *Hierarchy {
	if pol == nil {
		pol = policy.MustNew("lru")
	}
	h := &Hierarchy{cfg: cfg, pol: pol, hook: obs.GlobalHook()}
	for c := 0; c < cfg.Cores; c++ {
		pfx := fmt.Sprintf("core%d.", c)
		h.l1i = append(h.l1i, newLevel(pfx+"l1i", cfg.L1I, cfg.L1ILatency, cfg.MSHRs))
		h.l1d = append(h.l1d, newLevel(pfx+"l1d", cfg.L1D, cfg.L1DLatency, cfg.MSHRs))
		h.l2 = append(h.l2, newLevel(pfx+"l2", cfg.L2, cfg.L2Latency, cfg.MSHRs))
		pf := newPrefetcher(cfg.L2Prefetcher)
		h.l2pf = append(h.l2pf, pf)
		if k, ok := pf.(*KPCP); ok {
			h.kpcp = append(h.kpcp, k)
		} else {
			h.kpcp = append(h.kpcp, nil)
		}
	}
	h.llc = newLevel("llc", cfg.LLC, cfg.LLCLatency, cfg.MSHRs*cfg.Cores)
	pol.Init(policy.Config{Config: cfg.LLC, NumCores: cfg.Cores})
	return h
}

// SetLLCObserver installs fn on the LLC access path (nil to remove).
func (h *Hierarchy) SetLLCObserver(fn LLCObserver) { h.observer = fn }

// Stats returns the accumulated LLC statistics.
func (h *Hierarchy) Stats() LLCStats { return h.stats }

// WBToDRAM returns the count of dirty LLC victims written back to memory.
func (h *Hierarchy) WBToDRAM() uint64 { return h.wbToDRAM }

// Policy returns the LLC replacement policy instance.
func (h *Hierarchy) Policy() policy.Policy { return h.pol }

// KPCPFor returns the core's KPC-P engine, or nil when another prefetcher
// is configured. KPC-R wires its Confidence callback through this.
func (h *Hierarchy) KPCPFor(core int) *KPCP { return h.kpcp[core] }

// emit sends one cache event from level l to the obs hook, tagged with the
// level name so per-level streams can be filtered out of a shared sink.
// seq is the LLC access sequence number (0 at the private levels).
// With no hook set it inlines to a nil check.
func (h *Hierarchy) emit(l *level, kind obs.EventKind, a trace.Access, seq uint64, setIdx uint32, way int) {
	if h.hook != nil {
		h.send(l, kind, a, seq, setIdx, way)
	}
}

func (h *Hierarchy) send(l *level, kind obs.EventKind, a trace.Access, seq uint64, setIdx uint32, way int) {
	h.ev = obs.CacheEvent{
		Kind: kind, Seq: seq, PC: a.PC, Addr: a.Addr, Type: uint8(a.Type),
		Set: setIdx, Way: way, Policy: l.name,
	}
	h.hook.OnCacheEvent(&h.ev)
}

// accessLLC performs one LLC access, driving the replacement policy and
// the observer, and returns the completion time.
func (h *Hierarchy) accessLLC(core int, pc, addr uint64, ty trace.AccessType, now uint64) uint64 {
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	ctx := policy.AccessCtx{Access: a, Seq: h.llcSeq}
	h.llcSeq++

	setIdx, way, hit := h.llc.c.Probe(addr)
	ctx.SetIdx = setIdx
	set := h.llc.c.Set(setIdx)

	h.stats.Accesses++
	h.stats.ByType[ty]++
	if h.observer != nil {
		h.observer(a, hit)
	}

	if hit {
		h.stats.Hits++
		h.stats.HitsByType[ty]++
		if ty.IsDemand() {
			h.stats.DemandHits++
		}
		h.llc.c.RecordHit(setIdx, way, a)
		h.pol.Update(ctx, set, way, true)
		h.emit(h.llc, obs.EvHit, a, ctx.Seq, setIdx, way)
		return now + h.llc.latency
	}
	h.emit(h.llc, obs.EvMiss, a, ctx.Seq, setIdx, -1)
	if ty != trace.Writeback {
		// Merged miss: the block is already being fetched. The access
		// counts (and the observer has fired), but it must not re-drive
		// the replacement policy or re-count the demand miss — one
		// outstanding fetch performs exactly one fill.
		if ready, ok := h.llc.mshrLookup(addr, now); ok {
			return ready
		}
	}
	if ty.IsDemand() {
		h.stats.DemandMisses++
	}
	h.llc.c.RecordMissTouch(setIdx)

	done := now + h.llc.latency
	if ty != trace.Writeback {
		// Fetch from memory (writeback misses allocate without a read:
		// the evicted L2 line carries the full data).
		done = now + h.llc.latency + h.cfg.DRAMLatency
		h.llc.mshrInsert(addr, now, done)
	}

	way = h.llc.c.InvalidWay(setIdx)
	if way < 0 {
		way = h.pol.Victim(ctx, set)
	}
	if way == policy.Bypass {
		return done
	}
	victim := h.llc.c.Fill(setIdx, way, a)
	if victim.Valid && victim.Dirty {
		h.wbToDRAM++
	}
	h.pol.Update(ctx, set, way, false)
	h.emit(h.llc, obs.EvFill, a, ctx.Seq, setIdx, way)
	return done
}

// accessL2 performs one L2 access for a demand request (load/RFO) or an L1
// prefetch escalation, returning the completion time.
func (h *Hierarchy) accessL2(core int, pc, addr uint64, ty trace.AccessType, now uint64) uint64 {
	l2 := h.l2[core]
	setIdx, way, hit := l2.c.Probe(addr)

	// Train the L2 prefetcher on demand traffic and issue its prefetches.
	if ty.IsDemand() {
		for _, pa := range h.l2pf[core].OnAccess(pc, addr, hit) {
			h.issueL2Prefetch(core, pc, pa, now)
		}
	}

	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	if hit {
		l2.c.RecordHit(setIdx, way, a)
		h.emit(l2, obs.EvHit, a, 0, setIdx, way)
		return now + l2.latency
	}
	h.emit(l2, obs.EvMiss, a, 0, setIdx, -1)
	var done uint64
	if ready, ok := l2.mshrLookup(addr, now); ok {
		done = ready
	} else {
		done = h.accessLLC(core, pc, addr, ty, now+l2.latency)
		l2.mshrInsert(addr, now, done)
	}
	h.fillLevel(core, l2, addr, pc, ty)
	return done
}

// fillLevel installs addr into the level (LRU victim) and cascades a dirty
// victim as a writeback to the next level down.
func (h *Hierarchy) fillLevel(core int, l *level, addr, pc uint64, ty trace.AccessType) {
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	setIdx, _, hit := l.c.Probe(addr)
	if hit {
		return
	}
	l.c.RecordMissTouch(setIdx)
	way := l.c.InvalidWay(setIdx)
	if way < 0 {
		way = lruVictim(l.c.Set(setIdx))
	}
	victim := l.c.Fill(setIdx, way, a)
	h.emit(l, obs.EvFill, a, 0, setIdx, way)
	if victim.Valid && victim.Dirty {
		h.writeback(core, l, victim)
	}
}

// writeback sends a dirty victim from level l to the next level down.
func (h *Hierarchy) writeback(core int, from *level, victim cache.Line) {
	addr := victim.Block << 6
	switch from {
	case h.l1d[core]:
		// L1D victim → L2: hit marks dirty, miss allocates (data is a full
		// line; no fetch needed), possibly cascading.
		l2 := h.l2[core]
		setIdx, way, hit := l2.c.Probe(addr)
		a := trace.Access{Addr: addr, Type: trace.Writeback, Core: uint8(core)}
		if hit {
			l2.c.RecordHit(setIdx, way, a)
			return
		}
		l2.c.RecordMissTouch(setIdx)
		way = l2.c.InvalidWay(setIdx)
		if way < 0 {
			way = lruVictim(l2.c.Set(setIdx))
		}
		v2 := l2.c.Fill(setIdx, way, a)
		if v2.Valid && v2.Dirty {
			h.writeback(core, l2, v2)
		}
	case h.l2[core]:
		// L2 victim → LLC writeback access (the WB type the paper's traces
		// record). Timing is off the critical path.
		h.accessLLC(core, 0, addr, trace.Writeback, 0)
	default:
		h.wbToDRAM++
	}
}

// issueL2Prefetch brings addr toward L2 (and always at least into the LLC,
// as KPC does): it charges no core latency.
func (h *Hierarchy) issueL2Prefetch(core int, pc, addr uint64, now uint64) {
	l2 := h.l2[core]
	if _, _, hit := l2.c.Probe(addr); hit {
		return
	}
	if _, ok := l2.mshrLookup(addr, now); ok {
		return // already in flight
	}
	done := h.accessLLC(core, pc, addr, trace.Prefetch, now+l2.latency)
	l2.mshrInsert(addr, now, done)
	if h.kpcp[core] != nil && !h.kpcp[core].FillL2(addr) {
		return // KPC-P pollution gate: low confidence stays out of L2
	}
	h.fillLevel(core, l2, addr, pc, trace.Prefetch)
}

// AccessData performs a data-side access (load or store) from the core,
// returning the completion time. Next-line L1 prefetching is driven here.
func (h *Hierarchy) AccessData(core int, pc, addr uint64, store bool, now uint64) uint64 {
	l1 := h.l1d[core]
	ty := trace.Load
	if store {
		ty = trace.RFO
	}
	a := trace.Access{PC: pc, Addr: addr, Type: ty, Core: uint8(core)}
	setIdx, way, hit := l1.c.Probe(addr)

	if h.cfg.L1NextLine {
		for _, pa := range (NextLine{}).OnAccess(pc, addr, hit) {
			h.issueL1Prefetch(core, pc, pa, now)
		}
	}

	if hit {
		// RecordHit marks the line dirty for RFO accesses.
		l1.c.RecordHit(setIdx, way, a)
		h.emit(l1, obs.EvHit, a, 0, setIdx, way)
		return now + l1.latency
	}
	h.emit(l1, obs.EvMiss, a, 0, setIdx, -1)
	var done uint64
	if ready, ok := l1.mshrLookup(addr, now); ok {
		done = ready
	} else {
		done = h.accessL2(core, pc, addr, ty, now+l1.latency)
		l1.mshrInsert(addr, now, done)
	}
	h.fillLevel(core, l1, addr, pc, ty)
	return done
}

// issueL1Prefetch brings addr into L1D via the normal path, charging no
// core latency.
func (h *Hierarchy) issueL1Prefetch(core int, pc, addr uint64, now uint64) {
	l1 := h.l1d[core]
	if _, _, hit := l1.c.Probe(addr); hit {
		return
	}
	if _, ok := l1.mshrLookup(addr, now); ok {
		return
	}
	done := h.accessL2(core, pc, addr, trace.Prefetch, now+l1.latency)
	l1.mshrInsert(addr, now, done)
	h.fillLevel(core, l1, addr, pc, trace.Prefetch)
}

// AccessInstr performs an instruction-fetch access, returning completion.
func (h *Hierarchy) AccessInstr(core int, pc uint64, now uint64) uint64 {
	l1 := h.l1i[core]
	a := trace.Access{PC: pc, Addr: pc, Type: trace.Load, Core: uint8(core)}
	setIdx, way, hit := l1.c.Probe(pc)
	if hit {
		l1.c.RecordHit(setIdx, way, a)
		h.emit(l1, obs.EvHit, a, 0, setIdx, way)
		return now + l1.latency
	}
	h.emit(l1, obs.EvMiss, a, 0, setIdx, -1)
	var done uint64
	if ready, ok := l1.mshrLookup(pc, now); ok {
		done = ready
	} else {
		done = h.accessL2(core, pc, pc, trace.Load, now+l1.latency)
		l1.mshrInsert(pc, now, done)
	}
	h.fillLevel(core, l1, pc, pc, trace.Load)
	return done
}
