package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ftspm/internal/experiments"
	"ftspm/internal/resultcache"
	"ftspm/internal/server"
)

// serveCacheEntries bounds the server's memory cache below the 36
// sweep pairs, so the Zipf stream's tail keeps missing: about a quarter
// of requests miss, and the median request is a hit.
const serveCacheEntries = 18

// serveScale is the evaluate scale; the summary rows are at it.
const serveScale = 0.25

// rssWindow is the window of each serve peak-RSS sample.
const rssWindow = 250 * time.Millisecond

// speedEvery is how often the request loop takes a host-speed sample,
// between requests.
const speedEvery = 100 * time.Millisecond

// pair is one (workload, structure) evaluate request.
type pair struct{ workload, structure string }

// serveW drives POST /v1/evaluate on an in-process ftspmd handler over
// loopback, from one closed-loop client on one connection, with
// GOMAXPROCS 1. A second client would make a hit's latency depend on
// whether a concurrent miss holds the other vCPU, and with one P the
// client hands each request to the server on one thread instead of
// waking another vCPU, whose cost on a VM follows the host's load.
// Keys come from a seeded Zipf stream over the 36 sweep pairs in
// summary order (rank 0 is the first row). Every body must equal its
// summary row, hit or miss, at any seed.
type serveW struct {
	seed    int64
	procs   int // GOMAXPROCS before setup, restored by close
	pairs   []pair
	golden  map[pair][]byte // compacted summary row
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	keys    *keyStream
	dataDir string
}

func newServe(seed int64) *serveW { return &serveW{seed: seed} }

func (w *serveW) setup(ctx context.Context) error {
	w.procs = runtime.GOMAXPROCS(1)
	if err := w.loadGolden(); err != nil {
		return err
	}
	w.dataDir = filepath.Join(workDir, fmt.Sprintf("serve-%d", os.Getpid()))
	srv, err := server.New(server.Config{
		DataDir:       w.dataDir,
		MaxEvaluate:   1,
		EvaluateQueue: 1,
		DefaultScale:  serveScale,
		CacheEntries:  serveCacheEntries,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	w.keys = newKeyStream(w.seed, len(w.pairs))
	r, err := w.request(ctx, w.pairs[0])
	if err != nil {
		return err
	}
	return w.check(w.pairs[0], r)
}

func (w *serveW) loadGolden() error {
	raw, err := os.ReadFile(summaryGolden)
	if err != nil {
		return err
	}
	var sum struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(raw, &sum); err != nil {
		return fmt.Errorf("%s: %w", summaryGolden, err)
	}
	w.golden = make(map[pair][]byte, len(sum.Runs))
	for _, row := range sum.Runs {
		var id struct{ Workload, Structure string }
		if err := json.Unmarshal(row, &id); err != nil {
			return err
		}
		var c bytes.Buffer
		if err := json.Compact(&c, row); err != nil {
			return err
		}
		p := pair{id.Workload, id.Structure}
		w.pairs = append(w.pairs, p)
		w.golden[p] = c.Bytes()
	}
	return nil
}

func (w *serveW) close() {
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve shutdown:", err)
	}
	<-w.served
	if err := w.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve drain:", err)
	}
	w.client.CloseIdleConnections()
	os.RemoveAll(w.dataDir)
}

func (w *serveW) finish(context.Context) error { return nil }

// reply is one evaluate response.
type reply struct {
	status    int
	hit       bool // by the X-Ftspm-Cache header
	lat       time.Duration
	run       []byte // compacted "run" object
	elapsedMS int64
}

func (w *serveW) request(ctx context.Context, p pair) (reply, error) {
	body, err := json.Marshal(server.EvaluateRequest{Workload: p.workload, Structure: p.structure, Scale: serveScale})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, hit: resp.Header.Get("X-Ftspm-Cache") == "hit", lat: lat}
	if r.status != http.StatusOK {
		return r, nil
	}
	var env struct {
		Run       json.RawMessage `json:"run"`
		ElapsedMS int64           `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		return reply{}, fmt.Errorf("evaluate body: %w", err)
	}
	var c bytes.Buffer
	if err := json.Compact(&c, env.Run); err != nil {
		return reply{}, err
	}
	r.run, r.elapsedMS = c.Bytes(), env.ElapsedMS
	return r, nil
}

func (w *serveW) check(p pair, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("evaluate %v: status %d", p, r.status)
	}
	if !bytes.Equal(r.run, w.golden[p]) {
		return fmt.Errorf("serve: %s/%s body differs from its %s row (hit=%v): %w",
			p.workload, p.structure, summaryGolden, r.hit, errMismatch)
	}
	return nil
}

// servedReq is one completed request of the closed loop.
type servedReq struct {
	reply
	accesses uint64  // simulated by a miss, from its body
	speed    float64 // the latest host-speed sample before it
}

// served is the outcome of one run of the request loop.
type served struct {
	done   []servedReq
	failed int
	wall   time.Duration
	speed  []float64 // host-speed samples, untraced loops only
}

// loop runs the closed-loop client for d. A non-200 reply or a
// transport error is a failed op (429 and 503 are sheds); a body that
// differs from its golden row aborts the run. With rec set, each
// request is a span; without, the loop samples the host speed every
// speedEvery, between requests.
func (w *serveW) loop(ctx context.Context, d time.Duration, rec *recorder) (*served, error) {
	out := &served{}
	start := time.Now()
	var (
		lastSpeed time.Time // zero: sample before the first request
		speed     float64
	)
	for op := 1; op == 1 || time.Since(start) < d; op++ {
		if rec == nil && time.Since(lastSpeed) >= speedEvery {
			speed = hostSpeed()
			out.speed = append(out.speed, speed)
			lastSpeed = time.Now()
		}
		p := w.pairs[w.keys.next()]
		t := time.Now()
		r, err := w.request(ctx, p)
		if rec != nil {
			rec.add(op, 0, "server.request", t, time.Now())
		}
		if err != nil || r.status != http.StatusOK {
			out.failed++
			continue
		}
		if err := w.check(p, r); err != nil {
			return nil, err
		}
		s := servedReq{reply: r, speed: speed}
		if !r.hit {
			var rs experiments.RunSummary
			if err := json.Unmarshal(r.run, &rs); err != nil {
				return nil, err
			}
			s.accesses = rs.Accesses
		}
		out.done = append(out.done, s)
	}
	out.wall = time.Since(start)
	return out, nil
}

func (w *serveW) measure(ctx context.Context, d time.Duration) (*sample, error) {
	rss := startRSSSampler(rssWindow)
	sv, err := w.loop(ctx, d, nil)
	peaks := rss.finish()
	if err != nil {
		return nil, err
	}
	s := &sample{attempted: len(sv.done) + sv.failed, failed: sv.failed, wall: sv.wall, rssMB: peaks, speed: sv.speed}
	hits := 0
	for _, r := range sv.done {
		s.latMS = append(s.latMS, ms(r.lat))
		s.refMS = append(s.refMS, refTime(ms(r.lat), r.speed))
		s.accesses += r.accesses
		if r.hit {
			hits++
		}
	}
	s.note = fmt.Sprintf(" (%d hits, %d misses)", hits, len(sv.done)-hits)
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (w *serveW) cacheStats(ctx context.Context) (resultcache.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return resultcache.Stats{}, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return resultcache.Stats{}, err
	}
	defer resp.Body.Close()
	var h struct {
		Cache *resultcache.Stats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return resultcache.Stats{}, fmt.Errorf("healthz: %w", err)
	}
	if h.Cache == nil {
		return resultcache.Stats{}, fmt.Errorf("healthz: no cache block")
	}
	return *h.Cache, nil
}

// traced times each request as a span from the client — the nearest
// public call, since the server runs the whole pipeline behind one
// handler — and reads the cache counters from /healthz.
func (w *serveW) traced(ctx context.Context, d time.Duration, rec *recorder) (*layerResult, error) {
	before, err := w.cacheStats(ctx)
	if err != nil {
		return nil, err
	}
	sv, err := w.loop(ctx, d, rec)
	if err != nil {
		return nil, err
	}
	after, err := w.cacheStats(ctx)
	if err != nil {
		return nil, err
	}
	var hit, miss, overhead []float64
	lr := &layerResult{values: map[string]float64{}, failed: sv.failed, notes: map[string]string{}}
	for _, r := range sv.done {
		lr.latMS = append(lr.latMS, ms(r.lat))
		if r.hit {
			hit = append(hit, ms(r.lat))
		} else {
			miss = append(miss, ms(r.lat))
			overhead = append(overhead, ms(r.lat)-float64(r.elapsedMS))
		}
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	lr.values["resultcache.hits"] = float64(hits)
	lr.values["resultcache.misses"] = float64(misses)
	lr.values["resultcache.hit_frac"] = safeDiv(float64(hits), float64(hits+misses))
	lr.values["resultcache.evictions"] = float64(after.Evictions - before.Evictions)
	lr.values["resultcache.collapsed"] = float64(after.Collapsed - before.Collapsed)
	lr.values["server.shed"] = float64(sv.failed)
	if len(hit) > 0 {
		lr.values["server.hit_p50_ms"] = median(hit)
	}
	if len(miss) > 0 {
		lr.values["server.miss_p50_ms"] = median(miss)
		lr.values["server.overhead_p50_ms"] = median(overhead)
	}
	if p99, ok := tailPercentile(miss, 990); ok {
		lr.notes["server.miss_p99_ms"] = fmt.Sprintf("%.4f ms (n=%d)", p99, len(miss))
	} else {
		lr.notes["dropped: server.miss_p99_ms"] = fmt.Sprintf("%d misses, p99 needs %d", len(miss), samplesNeeded(990))
	}
	lr.notes["requests"] = fmt.Sprintf("%d hits, %d misses by X-Ftspm-Cache", len(hit), len(miss))
	return lr, nil
}
