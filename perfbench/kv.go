package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// rlcached's engine as a cache-aside store: GET, and PUT on a miss. Both
// kv paths use one shard of 1024 sets × 16 ways under rlr with a 16 MiB
// budget, and values of 64 B to 4 KiB from server.FillValue.
const (
	kvPolicy = "rlr"
	kvSets   = 1024
	kvWays   = 16
	kvMemory = 16 << 20
)

// kvSizes is how much of a kv path's trace warms the cache before the
// measured region, how much is measured, and the chunk of accesses each
// throughput sample covers. The traffic after warm-up is uniform, so the
// median over chunks is the throughput with bursts of host noise left out.
type kvSizes struct {
	warmup, measure, chunk int
}

var (
	kvDirectSizes = kvSizes{50_000, 100_000, 10_000}
	kvHTTPSizes   = kvSizes{10_000, 8_000, 1_000}
)

// kvInput is the generated request stream: per access its key, PC and the
// payload a miss PUTs (shared between accesses to one block).
type kvInput struct {
	accs []trace.Access
	keys []string
	vals [][]byte
}

func kvSetup(u *unit, seed uint64, bench string, sz kvSizes) (*kvInput, *server.Server, error) {
	t0 := time.Now()
	sp, err := spec(bench, seed)
	if err != nil {
		return nil, nil, err
	}
	n := sz.warmup + sz.measure
	in := &kvInput{accs: workloads.LLCAccesses(sp, n), keys: make([]string, n), vals: make([][]byte, n)}
	u.values["workloads.gen_s"] += time.Since(t0).Seconds()
	byBlock := map[uint64][]byte{}
	for i, a := range in.accs {
		in.keys[i] = server.KeyOf(a)
		block := a.Addr >> 6
		v, ok := byBlock[block]
		if !ok {
			v = server.FillValue(block, nil)
			byBlock[block] = v
		}
		in.vals[i] = v
	}
	t1 := time.Now()
	srv, err := server.New(server.Config{Policy: kvPolicy, Shards: 1, Sets: kvSets, Ways: kvWays, MemoryBytes: kvMemory})
	if err != nil {
		return nil, nil, err
	}
	u.values["server.new_s"] += time.Since(t1).Seconds()
	return in, srv, nil
}

// kvTally counts what the client saw.
type kvTally struct {
	gets, hits, puts uint64
}

func (t kvTally) ops() uint64 { return t.gets + t.puts }

func (t kvTally) minus(b kvTally) kvTally {
	return kvTally{gets: t.gets - b.gets, hits: t.hits - b.hits, puts: t.puts - b.puts}
}

// kvCheck checks the client against the server's own counters, records
// the server counters as fidelity metrics with prefix (the kv-direct
// path's are the reported server.* metrics), and returns the measured
// region's GET hit rate in percent.
func kvCheck(u *unit, prefix string, srv *server.Server, all, measured kvTally) (float64, error) {
	sn := srv.Snapshot()
	t := sn.Totals
	if all.hits != t.GetHits || all.gets != t.Gets || all.puts != t.Puts {
		return 0, fmt.Errorf("client saw %d GETs, %d hits, %d PUTs; server counted %d, %d, %d",
			all.gets, all.hits, all.puts, t.Gets, t.GetHits, t.Puts)
	}
	if measured.gets == 0 || measured.hits == 0 {
		return 0, fmt.Errorf("measured region made %d GETs with %d hits", measured.gets, measured.hits)
	}
	hitPct := 100 * float64(measured.hits) / float64(measured.gets)
	evictions := t.Evictions + t.BudgetEvictions
	u.fidelity[prefix+"hit_pct"] = hitPct
	u.fidelity[prefix+"server.evictions"] = float64(evictions)
	u.fidelity[prefix+"server.budget_evictions"] = float64(t.BudgetEvictions)
	if evictions > 0 {
		u.fidelity[prefix+"server.budget_evict_share"] = float64(t.BudgetEvictions) / float64(evictions)
	}
	u.fidelity[prefix+"server.bypasses"] = float64(t.AdmitBypasses + t.PolicyBypasses)
	u.fidelity[prefix+"server.entries"] = float64(t.Entries)
	if t.Bytes > 0 {
		u.fidelity[prefix+"server.dedup_ratio"] = float64(sn.UniqueBytes) / float64(t.Bytes)
	}
	u.fidelity[prefix+"server.fills"] = float64(t.Fills)
	u.fidelity[prefix+"server.bytes"] = float64(t.Bytes)
	return hitPct, nil
}

func runKVDirect(u *unit, seed uint64, bench string) error {
	t0 := time.Now()
	in, srv, err := kvSetup(u, seed, bench, kvDirectSizes)
	if err != nil {
		return err
	}
	var all kvTally
	for i := 0; i < kvDirectSizes.warmup; i++ {
		u.failed += directAccess(srv, in, i, &all, nil)
	}
	u.setup += time.Since(t0)

	var tm *directTimes
	if u.traced {
		tm = &directTimes{}
	}
	before := all
	var rates []float64
	u.measure(func() {
		for start := kvDirectSizes.warmup; start < len(in.accs); start += kvDirectSizes.chunk {
			c0, ops0 := time.Now(), all.ops()
			for i := start; i < min(start+kvDirectSizes.chunk, len(in.accs)); i++ {
				u.failed += directAccess(srv, in, i, &all, tm)
			}
			rates = append(rates, float64(all.ops()-ops0)/time.Since(c0).Seconds())
		}
	})
	measured := all.minus(before)
	u.ops += measured.ops()
	u.values["engine_ops_per_s"] = median(rates)
	if tm != nil {
		u.percentiles("server.get_hit_ns", tm.getHit)
		u.percentiles("server.get_miss_ns", tm.getMiss)
		u.percentiles("server.put_ns", tm.put)
	}
	hitPct, err := kvCheck(u, "", srv, all, measured)
	u.values["hit_pct"] = hitPct
	return err
}

// directTimes holds the traced per-call times of Server.Get and Put.
type directTimes struct {
	getHit, getMiss, put []float64
}

// directAccess runs access i cache-aside against the engine and returns
// the number of failed operations (a hit whose body differs from the
// payload PUT for that key). With tm set it times each call.
func directAccess(srv *server.Server, in *kvInput, i int, t *kvTally, tm *directTimes) uint64 {
	key, pc, want := in.keys[i], in.accs[i].PC, in.vals[i]
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	val, hit := srv.Get(key, pc)
	if tm != nil {
		ns := float64(time.Since(t0).Nanoseconds())
		if hit {
			tm.getHit = append(tm.getHit, ns)
		} else {
			tm.getMiss = append(tm.getMiss, ns)
		}
	}
	t.gets++
	if hit {
		t.hits++
		if !bytes.Equal(val, want) {
			return 1
		}
		return 0
	}
	if tm != nil {
		t0 = time.Now()
	}
	srv.Put(key, pc, want)
	if tm != nil {
		tm.put = append(tm.put, float64(time.Since(t0).Nanoseconds()))
	}
	t.puts++
	return 0
}

func runKVHTTP(u *unit, seed uint64, bench string) (err error) {
	t0 := time.Now()
	in, srv, err := kvSetup(u, seed, bench, kvHTTPSizes)
	if err != nil {
		return err
	}
	c, err := startHTTP(srv, in, u.traced)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()
	// Warm the cache through the engine, then open the connection.
	for i := 0; i < kvHTTPSizes.warmup; i++ {
		u.failed += directAccess(srv, in, i, &c.tally, nil)
	}
	if err := c.ping(); err != nil {
		return err
	}
	u.setup += time.Since(t0)

	before := c.tally
	var rates []float64
	u.measure(func() {
		for start := kvHTTPSizes.warmup; start < len(in.accs) && err == nil; start += kvHTTPSizes.chunk {
			c0, ops0 := time.Now(), c.tally.ops()
			for i := start; i < min(start+kvHTTPSizes.chunk, len(in.accs)) && err == nil; i++ {
				err = c.access(i)
			}
			rates = append(rates, float64(c.tally.ops()-ops0)/time.Since(c0).Seconds())
		}
	})
	if err != nil {
		return err
	}
	measured := c.tally.minus(before)
	u.ops += measured.ops()
	u.failed += c.failed
	u.values["http_req_per_s"] = median(rates)
	u.percentiles("http.client_us", c.clientUs, 50, 90, 99)
	u.values["p50_us"] = u.values["http.client_us.p50"]
	u.values["p90_us"] = u.values["http.client_us.p90"]
	if u.traced {
		u.percentiles("server.handler_us", c.handlerUs)
		u.percentiles("http.overhead_us", c.overheadUs)
	}
	_, err = kvCheck(u, "kv-http.", srv, c.tally, measured)
	return err
}

// httpClient is the single closed-loop caller: one keep-alive connection
// to the server on loopback, one request in flight.
type httpClient struct {
	in      *kvInput
	base    string // http://host:port/
	urls    []string
	pcs     []string
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	client  *http.Client
	handler *timedHandler // nil when untraced
	body    bytes.Buffer

	tally                           kvTally
	failed                          uint64
	clientUs, handlerUs, overheadUs []float64
}

func startHTTP(srv *server.Server, in *kvInput, traced bool) (*httpClient, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	c := &httpClient{in: in, served: make(chan error, 1)}
	h := srv.Handler()
	if traced {
		c.handler = newTimedHandler(h)
		h = c.handler
	}
	c.hs = &http.Server{Handler: h}
	go func() { c.served <- c.hs.Serve(ln) }()
	c.tr = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c.client = &http.Client{Transport: c.tr}
	c.base = "http://" + ln.Addr().String() + "/"
	c.urls = make([]string, len(in.accs))
	c.pcs = make([]string, len(in.accs))
	for i, a := range in.accs {
		c.urls[i] = c.base + "kv/" + in.keys[i]
		c.pcs[i] = strconv.FormatUint(a.PC, 16)
	}
	return c, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (c *httpClient) close() error {
	c.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.hs.Shutdown(ctx)
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// ping opens the keep-alive connection with a health check.
func (c *httpClient) ping() error {
	status, err := c.do(http.MethodGet, c.base+"healthz", "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK || c.body.String() != "ok\n" {
		return fmt.Errorf("/healthz answered %d %q", status, c.body.String())
	}
	c.clientUs, c.handlerUs, c.overheadUs = c.clientUs[:0], c.handlerUs[:0], c.overheadUs[:0]
	return nil
}

// access runs access i cache-aside over HTTP. A wrong status or a hit
// body that differs from the payload counts as a failed request; a
// transport error aborts the unit.
func (c *httpClient) access(i int) error {
	status, err := c.do(http.MethodGet, c.urls[i], c.pcs[i], nil)
	if err != nil {
		return err
	}
	c.tally.gets++
	switch status {
	case http.StatusOK:
		c.tally.hits++
		if !bytes.Equal(c.body.Bytes(), c.in.vals[i]) {
			c.failed++
		}
		return nil
	case http.StatusNotFound:
	default:
		c.failed++
		return nil
	}
	status, err = c.do(http.MethodPut, c.urls[i], c.pcs[i], c.in.vals[i])
	if err != nil {
		return err
	}
	c.tally.puts++
	switch status {
	case http.StatusCreated, http.StatusNoContent, http.StatusAccepted:
	default:
		c.failed++
	}
	return nil
}

// do sends one request (with an X-PC header unless pc is empty), reads
// the whole response into c.body, records the request's timings and
// returns the status.
func (c *httpClient) do(method, url, pc string, payload []byte) (int, error) {
	t0 := time.Now()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if pc != "" {
		req.Header.Set("X-PC", pc)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	lat := time.Since(t0)
	c.clientUs = append(c.clientUs, float64(lat.Nanoseconds())/1e3)
	if c.handler != nil {
		select {
		case hd := <-c.handler.durs:
			c.handlerUs = append(c.handlerUs, float64(hd.Nanoseconds())/1e3)
			c.overheadUs = append(c.overheadUs, float64(selfTime(lat, hd).Nanoseconds())/1e3)
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("%s %s: the handler never finished", method, url)
		}
	}
	return resp.StatusCode, nil
}
