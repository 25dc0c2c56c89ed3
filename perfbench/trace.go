package main

import (
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/policy"
)

// timedPolicy is the policy-layer span of a traced run: it forwards every
// call to the wrapped policy unchanged and accumulates the time spent in
// Victim and Update. Name and Init are forwarded by embedding.
type timedPolicy struct {
	policy.Policy
	victimNs, updateNs int64
	victims, updates   uint64
}

func (t *timedPolicy) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	t0 := time.Now()
	w := t.Policy.Victim(ctx, set)
	t.victimNs += int64(time.Since(t0))
	t.victims++
	return w
}

func (t *timedPolicy) Update(ctx policy.AccessCtx, set *cache.Set, way int, hit bool) {
	t0 := time.Now()
	t.Policy.Update(ctx, set, way, hit)
	t.updateNs += int64(time.Since(t0))
	t.updates++
}

// total returns the time spent inside the wrapped policy.
func (t *timedPolicy) total() time.Duration { return time.Duration(t.victimNs + t.updateNs) }

// record stores the policy's per-call means and call counts under suffix.
func (t *timedPolicy) record(u *unit, suffix string) {
	u.values["policy.victim_ns."+suffix] = perCall(t.victimNs, t.victims)
	u.values["policy.update_ns."+suffix] = perCall(t.updateNs, t.updates)
	u.values["policy.victim_calls."+suffix] = float64(t.victims)
	u.values["policy.update_calls."+suffix] = float64(t.updates)
}

func perCall(ns int64, calls uint64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// timedHandler is the server-layer span of a traced HTTP run: it times
// each request inside Server.Handler() and hands the duration to the
// client, which pairs it with its own timing of the same request. The
// client runs a closed loop with one request in flight, so the channel
// needs room for exactly one duration.
type timedHandler struct {
	inner http.Handler
	durs  chan time.Duration
}

func newTimedHandler(inner http.Handler) *timedHandler {
	return &timedHandler{inner: inner, durs: make(chan time.Duration, 1)}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.durs <- time.Since(t0)
}

// selfTime is a layer's own time: its span minus the child spans inside
// it. Children are timed inside the parent's interval, so the difference
// can only dip below zero by clock granularity; it is clamped at zero.
func selfTime(total, children time.Duration) time.Duration {
	if children > total {
		return 0
	}
	return total - children
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample whose rank r satisfies r >= ceil(p/100 * n). xs is sorted in
// place. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return xs[idx]
}

// median returns the middle value of xs (the mean of the two middle
// values for even n), sorting a copy.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
