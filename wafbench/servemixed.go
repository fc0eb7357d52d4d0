package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"waferscale/internal/fault"
	"waferscale/internal/noc"
	"waferscale/internal/serve"
	"waferscale/internal/store"
	"waferscale/internal/workload"
)

// serve-mixed: an in-process waferscaled (serve.New with the daemon's
// defaults: Slots = GOMAXPROCS, default cache bounds, a disk Store and
// an fsync'd Journal) driven in a closed loop by smClients clients that
// submit and then wait. Each client's seeded stream mixes repeats of a
// pool larger than the LRU (memory- and disk-tier hits), fresh
// sub-millisecond specs where serving overhead dominates, and fresh
// simulation specs that hold a slot for tens to hundreds of
// milliseconds.
//
// Nothing in the repository measures how callers use the daemon, so the
// shares are an assumption. The one premise on record (README, "Serving:
// waferscaled") is that design-space exploration sends many
// near-duplicate queries, so repeats outnumber fresh requests, two to
// one; every other share is uniform: fresh requests are half cheap, half
// simulation, and within a class every kind comes equally often.

const (
	smClients = 2
	// smPool exceeds the LRU's 256-entry default, so repeats also land
	// on the disk tier.
	smPool = 320
	// smSlice is the length of one traced or untraced phase.
	smSlice = 2 * time.Second
	// smStoreMB matches the daemon's default disk-store bound.
	smStoreMB = 512
	// smWarmupClients compute the repeat pool in set-up, a bulk load
	// that keeps both slots busy rather than waiting on round trips.
	smWarmupClients = 8
)

// smBlock is the request mix, sent in a seeded order per block so that
// every run has the same shares.
var smBlock = []string{"repeat", "repeat", "repeat", "repeat", "cheap", "sim"}

// smSimKinds is cycled by the fresh simulation specs: small workload
// runs, cycle-engine throughput probes, Fig. 6 Monte Carlos and chaos
// sweeps, equally often.
var smSimKinds = []string{"workload", "throughput", "nocmc", "chaos"}

// smRequest is one request of a client's stream.
type smRequest struct {
	class string // repeat | cheap | sim
	kind  string
	body  []byte
	key   string // cache key, pool specs only
}

func mustSpec(sp serve.Spec) smRequest {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err)
	}
	return smRequest{kind: sp.Kind, body: b}
}

// cheapSpec draws a sub-millisecond spec: a small droop solve or an
// analytical NoC throughput curve; dse only with pool=true, because its
// parameter space is too small to stay fresh.
func cheapSpec(rng *rand.Rand, pool bool) smRequest {
	n := 2
	if pool {
		n = 3
	}
	switch rng.Intn(n) {
	case 0:
		return mustSpec(serve.Spec{Kind: "droop", Droop: &serve.DroopSpec{
			Side: 8 + rng.Intn(13), EdgeVolts: 2.0 + float64(rng.Intn(10000))/10000,
		}})
	case 1:
		topos := noc.TopologyNames()
		return mustSpec(serve.Spec{Kind: "throughput", Throughput: &serve.ThroughputSpec{
			Side: 8, Faults: rng.Intn(4), Seed: 1 + rng.Int63n(1<<40), Model: noc.ModelNameAnalytical,
			Topology: topos[rng.Intn(len(topos))],
		}})
	}
	all := []int{8, 12, 16, 20, 24, 32}
	var sides []int
	for _, s := range all {
		if rng.Intn(2) == 0 {
			sides = append(sides, s)
		}
	}
	if len(sides) == 0 {
		sides = all[:1]
	}
	return mustSpec(serve.Spec{Kind: "dse", DSE: &serve.DSESpec{Sides: sides, Model: noc.ModelNameAnalytical}})
}

// simSpec draws a fresh simulation spec of the given kind.
func simSpec(rng *rand.Rand, kind string) smRequest {
	switch kind {
	case "workload":
		topos, places := noc.TopologyNames(), workload.PlacementNames()
		return mustSpec(serve.Spec{Kind: "workload", Workload: &serve.WorkloadSpec{
			Side: 4, Tokens: 2 + rng.Intn(4), Dim: 2 + rng.Intn(4), Experts: 2 + rng.Intn(3),
			Topology: topos[rng.Intn(len(topos))], Placement: places[rng.Intn(len(places))],
		}})
	case "throughput":
		return mustSpec(serve.Spec{Kind: "throughput", Throughput: &serve.ThroughputSpec{
			Side: 4, Faults: rng.Intn(3), Seed: 1 + rng.Int63n(1<<40), Rates: []float64{0.05, 0.2},
		}})
	case "nocmc":
		return mustSpec(serve.Spec{Kind: "nocmc", NoCMC: &serve.NoCMCSpec{
			Trials: 2, MaxFaults: 4, Seed: 1 + rng.Int63n(1<<40),
		}})
	}
	return mustSpec(serve.Spec{Kind: "chaos", Chaos: &serve.ChaosSpec{
		Side: 4, Workers: 4, GraphSide: 4, Trials: 1, Kills: []int{0, 1}, MaxCycles: 40_000,
		Seed: 1 + rng.Int63n(1<<40),
	}})
}

// smPoolSpecs draws the repeat pool: smPool distinct cheap specs.
func smPoolSpecs(seed int64) ([]smRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var pool []smRequest
	for len(pool) < smPool {
		r := cheapSpec(rng, true)
		var sp serve.Spec
		if err := json.Unmarshal(r.body, &sp); err != nil {
			return nil, err
		}
		if err := sp.Normalize(); err != nil {
			return nil, err
		}
		if k := sp.CacheKey(); !seen[k] {
			seen[k] = true
			r.class, r.key = "repeat", k
			pool = append(pool, r)
		}
	}
	return pool, nil
}

// smStream yields client c's seeded request stream.
type smStream struct {
	rng   *rand.Rand
	pool  []smRequest
	block []string
	sims  int
}

func newStream(seed int64, client int, pool []smRequest) *smStream {
	return &smStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), pool: pool}
}

func (s *smStream) next() smRequest {
	if len(s.block) == 0 {
		s.block = append([]string(nil), smBlock...)
		s.rng.Shuffle(len(s.block), func(a, b int) { s.block[a], s.block[b] = s.block[b], s.block[a] })
	}
	class := s.block[0]
	s.block = s.block[1:]
	var r smRequest
	switch class {
	case "repeat":
		r = s.pool[s.rng.Intn(len(s.pool))]
	case "cheap":
		r = cheapSpec(s.rng, false)
	default:
		r = simSpec(s.rng, smSimKinds[s.sims%len(smSimKinds)])
		s.sims++
	}
	r.class = class
	return r
}

// smServer is one in-process daemon with its durability directory.
type smServer struct {
	srv *serve.Server
	ts  *httptest.Server
	ds  *store.Store
	jr  *store.Journal
	dir string
}

func startServer(dir string) (*smServer, error) {
	ds, err := store.Open(filepath.Join(dir, "store"), smStoreMB<<20)
	if err != nil {
		return nil, err
	}
	jr, live, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Store: ds, Journal: jr})
	srv.Recover(live)
	return &smServer{srv: srv, ts: httptest.NewServer(srv.Handler()), ds: ds, jr: jr, dir: dir}, nil
}

func (s *smServer) close() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n := s.srv.Drain(ctx); n > 0 {
		return fmt.Errorf("drain force-canceled %d job(s)", n)
	}
	if err := s.jr.Close(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// smResult is one served request as the client saw it.
type smResult struct {
	class, kind     string
	cached, deduped bool
	ms              float64
	traced          bool
	start           time.Time
	simCycles       int64
	timed           bool    // the server queued the job; queueMs and execMs are set
	queueMs, execMs float64 // created -> started, started -> finished
	key             string
	payload         []byte
	err             string
	wrong           bool
}

// smClient submits requests and reads each result back.
type smClient struct {
	base string
	http *http.Client

	// keep retains computed payloads for the store replay of a traced
	// run; otherwise only their digests are held.
	keep bool

	mu    sync.Mutex
	first map[string][32]byte // cache key -> digest of the first payload seen
}

type submitReply struct {
	serve.JobStatus
	Deduped bool `json:"deduped"`
}

func (c *smClient) do(tr *Tracer, id int64, req smRequest) (res smResult) {
	res = smResult{class: req.class, kind: req.kind, traced: tr != nil, start: time.Now()}
	root := tr.Begin("job", 0, id)
	defer func() {
		res.ms = float64(time.Since(res.start).Nanoseconds()) / 1e6
		tr.End(root)
	}()

	sp := tr.Begin("serve.submit", root, id)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(req.body))
	var rep submitReply
	if err == nil {
		err = decodeReply(resp, &rep, http.StatusOK, http.StatusAccepted)
	}
	tr.End(sp)
	if err != nil {
		res.err = "submit: " + err.Error()
		return res
	}
	res.cached, res.deduped, res.key = rep.Cached, rep.Deduped, rep.Key

	if rep.State == serve.StateQueued || rep.State == serve.StateRunning {
		sp = tr.Begin("serve.wait", root, id)
		err = c.drainEvents(rep.ID)
		tr.End(sp)
		if err != nil {
			res.err = "events: " + err.Error()
			return res
		}
		// Poll the finished job's state, as the documented client flow
		// does before fetching the result; it carries the lifecycle
		// timestamps.
		sp = tr.Begin("serve.status", root, id)
		res.queueMs, res.execMs, err = c.status(rep.ID)
		tr.End(sp)
		if err != nil {
			res.err = "status: " + err.Error()
			return res
		}
		res.timed = true
	}

	sp = tr.Begin("serve.result", root, id)
	payload, err := c.get("/v1/jobs/" + rep.ID + "/result")
	tr.End(sp)
	if err != nil {
		res.err = "result: " + err.Error()
		return res
	}
	if c.keep && !res.cached && !res.deduped {
		res.payload = payload
	}
	cycles, problem := checkPayload(req.kind, payload)
	if problem == "" {
		problem = c.checkIdentity(rep.Key, payload, res.cached)
	}
	if problem != "" {
		res.err, res.wrong = problem, true
		return res
	}
	if !res.cached && !res.deduped {
		res.simCycles = cycles
	}
	return res
}

// status fetches a finished job's lifecycle timestamps.
func (c *smClient) status(id string) (queueMs, execMs float64, err error) {
	b, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return 0, 0, err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, 0, err
	}
	if st.Started == nil || st.Finished == nil {
		return 0, 0, fmt.Errorf("job %s has no start/finish time", id)
	}
	return float64(st.Started.Sub(st.Created).Nanoseconds()) / 1e6, float64(st.Finished.Sub(*st.Started).Nanoseconds()) / 1e6, nil
}

func (c *smClient) drainEvents(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *smClient) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func decodeReply(resp *http.Response, v any, okCodes ...int) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, code := range okCodes {
		if resp.StatusCode == code {
			return json.Unmarshal(b, v)
		}
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// checkIdentity enforces the cache contract: every payload served for a
// key is byte-identical to the first one this run saw for it. (Another
// client's hit can reach the check before the computing client does.)
func (c *smClient) checkIdentity(key string, payload []byte, cached bool) string {
	sum := sha256.Sum256(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = sum
		return ""
	}
	if prev != sum {
		return fmt.Sprintf("payload for key %.12s differs from the first one served (cached=%v)", key, cached)
	}
	return ""
}

// checkPayload decodes a result and checks it; it returns the simulated
// cycles the result reports.
func checkPayload(kind string, payload []byte) (int64, string) {
	bad := func(format string, args ...any) (int64, string) { return 0, kind + ": " + fmt.Sprintf(format, args...) }
	switch kind {
	case "droop":
		var r serve.DroopResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		if !(r.MinVolt > 0) || r.Tiles == 0 || len(r.CenterProfile) == 0 {
			return bad("min %.4f V over %d tiles", r.MinVolt, r.Tiles)
		}
	case "throughput":
		var r serve.ThroughputResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		if len(r.Points) == 0 {
			return bad("no points")
		}
		if r.Model == noc.ModelNameCycle {
			cfg := noc.DefaultThroughputConfig()
			return int64(len(r.Points) * (cfg.WarmupCycles + cfg.MeasureCycles)), ""
		}
	case "dse":
		var r serve.DSEResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		if len(r.ArrayPoints) == 0 {
			return bad("no points")
		}
	case "workload":
		var r serve.WorkloadResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		if !r.Verified || r.Report == nil {
			return bad("not verified against the host reference (mismatched %v)", r.Mismatched)
		}
		return r.Report.TotalCycles, ""
	case "nocmc":
		var r serve.NoCMCResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		if len(r.Points) == 0 {
			return bad("no points")
		}
		for _, p := range r.Points {
			if p.PctDual.Mean > p.PctSingle.Mean {
				return bad("dual-network disconnection %.3f%% above single %.3f%%", p.PctDual.Mean, p.PctSingle.Mean)
			}
		}
	case "chaos":
		var r serve.ChaosResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return bad("%v", err)
		}
		var cycles float64
		for _, p := range r.Points {
			if p.Kills == 0 && p.Verified != p.Trials {
				return bad("%d of %d fault-free trials verified", p.Verified, p.Trials)
			}
			cycles += p.MeanCycles * float64(p.Trials)
		}
		if len(r.Points) == 0 {
			return bad("no points")
		}
		return int64(cycles), ""
	default:
		return bad("unknown kind")
	}
	return 0, ""
}

// serveAll runs the clients over their streams until stop says so and
// returns every result in completion order per client.
func serveAll(c *smClient, streams []func() (smRequest, bool), tracerAt func(time.Time) *Tracer, ids *int64) []smResult {
	var mu sync.Mutex
	var all []smResult
	var wg sync.WaitGroup
	for _, next := range streams {
		wg.Add(1)
		go func(next func() (smRequest, bool)) {
			defer wg.Done()
			var mine []smResult
			for {
				req, ok := next()
				if !ok {
					break
				}
				tr := tracerAt(time.Now())
				mu.Lock()
				*ids++
				id := *ids
				mu.Unlock()
				mine = append(mine, c.do(tr, id, req))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(next)
	}
	wg.Wait()
	return all
}

// setupServer starts a daemon and computes the repeat pool through it.
// The pool is a bulk load, written with fsync off; the daemon serves the
// measured window with fsync on, its default.
func setupServer(dir string, pool []smRequest) (*smServer, *smClient, error) {
	s, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	s.ds.SetFsync(false)
	s.jr.SetFsync(false)
	defer s.ds.SetFsync(true)
	defer s.jr.SetFsync(true)
	c := &smClient{
		base:  s.ts.URL,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * smWarmupClients}, Timeout: 60 * time.Second},
		first: map[string][32]byte{},
	}
	var mu sync.Mutex
	i := 0
	streams := make([]func() (smRequest, bool), smWarmupClients)
	for k := range streams {
		streams[k] = func() (smRequest, bool) {
			mu.Lock()
			defer mu.Unlock()
			if i >= len(pool) {
				return smRequest{}, false
			}
			i++
			return pool[i-1], true
		}
	}
	var ids int64
	for _, r := range serveAll(c, streams, func(time.Time) *Tracer { return nil }, &ids) {
		if r.err != "" {
			s.close()
			return nil, nil, fmt.Errorf("warm-up %s: %s", r.kind, r.err)
		}
	}
	return s, c, nil
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	pool, err := smPoolSpecs(cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, client, err := setupServer(filepath.Join(cfg.workDir, "serve"), pool)
	if err != nil {
		return nil, err
	}
	o.setup = append(o.setup, time.Since(t0).Seconds())
	defer client.http.CloseIdleConnections()
	if cfg.setupOnly {
		return o, srv.close()
	}
	client.keep = cfg.tracer != nil
	defer srv.close()

	h := sha256.New()
	for _, r := range pool {
		sum := client.first[r.key]
		h.Write(sum[:])
	}
	o.counts["serve.pool_digest"] = int64(binary.BigEndian.Uint64(h.Sum(nil)) >> 1)

	before := srv.srv.Snapshot()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	phaseOf := func(t time.Time) int { return int(t.Sub(start) / smSlice) }
	tracerAt := func(t time.Time) *Tracer { return cfg.phaseTracer(phaseOf(t)) }
	var issuedMu sync.Mutex
	var issued []smRequest // requests of traced phases, for the normalize probe
	streams := make([]func() (smRequest, bool), smClients)
	for k := range streams {
		st := newStream(cfg.seed, k, pool)
		streams[k] = func() (smRequest, bool) {
			now := time.Now()
			if !now.Before(deadline) {
				return smRequest{}, false
			}
			r := st.next()
			if tracerAt(now) != nil {
				issuedMu.Lock()
				issued = append(issued, r)
				issuedMu.Unlock()
			}
			return r, true
		}
	}
	var ids int64
	results := serveAll(client, streams, tracerAt, &ids)
	after := srv.srv.Snapshot()

	// Phases are the time slices up to the deadline; a job counts in the
	// slice it started in.
	nPhases := phaseOf(deadline.Add(-1)) + 1
	phases := make([]phase, nPhases)
	for k := range phases {
		phases[k].traced = cfg.phaseTracer(k) != nil
		phases[k].secs = smSlice.Seconds()
	}
	phases[nPhases-1].secs = deadline.Sub(start.Add(time.Duration(nPhases-1) * smSlice)).Seconds()

	var hits, misses, queue []float64
	exec := map[string][]float64{}
	computed := map[string][]byte{}
	for i := range results {
		r := &results[i]
		o.attempted++
		if r.err != "" {
			o.fail(r.wrong, "%s %s: %s", r.class, r.kind, r.err)
			continue
		}
		ph := &phases[phaseOf(r.start)]
		ph.jobs++
		o.addJob(r.ms, r.traced)
		if !r.traced {
			if r.cached {
				hits = append(hits, r.ms)
			} else {
				misses = append(misses, r.ms)
			}
		}
		if r.simCycles > 0 {
			ph.simCycles += r.simCycles
			ph.simSecs += r.ms / 1000
		}
		if r.payload != nil {
			computed[r.key] = r.payload
		}
	}
	o.phases = phases

	if cfg.tracer != nil {
		if err := normalizeProbe(cfg.tracer, issued); err != nil {
			return nil, err
		}
		if err := storeReplay(cfg.tracer, filepath.Join(cfg.workDir, "replay"), computed); err != nil {
			return nil, err
		}
		var nHit int
		for _, r := range results {
			if r.err != "" {
				continue
			}
			if r.cached {
				nHit++
			}
			if r.timed && !r.deduped {
				queue = append(queue, r.queueMs)
				exec[r.kind] = append(exec[r.kind], r.execMs)
			}
		}
		lt := aggregate(cfg.tracer.Spans())
		o.layer["serve.submit_ms"] = lt.meanMs("serve.submit")
		o.layer["serve.result_ms"] = lt.meanMs("serve.result")
		o.layer["serve.normalize_us"] = lt.meanMs("serve.Normalize") * 1000
		o.layer["store.put_ms"] = lt.meanMs("store.Put")
		o.layer["store.get_ms"] = lt.meanMs("store.Get")
		o.layer["store.journal_append_ms"] = lt.meanMs("store.Journal.Append")
		o.layer["serve.queue_wait_p50_ms"] = median(queue)
		o.layer["serve.queue_wait_p99_ms"] = fault.Percentile(queue, 99)
		for kind, v := range exec {
			o.layer["serve.exec_ms."+kind] = median(v)
		}
		memHits := after.Cache.Hits - before.Cache.Hits
		diskHits := after.Store.Hits - before.Store.Hits
		o.layer["serve.hit_frac"] = float64(nHit) / float64(len(results))
		if memHits+diskHits > 0 {
			o.layer["serve.disk_hit_frac"] = float64(diskHits) / float64(memHits+diskHits)
		}
		o.layer["serve.dedup_joins"] = float64(after.InflightJoins - before.InflightJoins)
		o.layer["serve.rejected"] = float64(after.Rejected - before.Rejected)
		o.layer["serve.hit_p50_ms"] = median(hits)
		o.layer["serve.miss_p50_ms"] = median(misses)
	}
	return o, nil
}

// normalizeProbe times Normalize plus CacheKey directly on the specs
// the clients sent in traced phases.
func normalizeProbe(tr *Tracer, issued []smRequest) error {
	for i, r := range issued {
		var sp serve.Spec
		if err := json.Unmarshal(r.body, &sp); err != nil {
			return err
		}
		s := tr.Begin("serve.Normalize", 0, int64(i))
		err := sp.Normalize()
		_ = sp.CacheKey()
		tr.End(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// storeReplay writes the run's computed payloads into a fresh fsync'd
// Store and Journal and reads them back, timing each call.
func storeReplay(tr *Tracer, dir string, computed map[string][]byte) error {
	defer os.RemoveAll(dir)
	ds, err := store.Open(filepath.Join(dir, "store"), smStoreMB<<20)
	if err != nil {
		return err
	}
	jr, _, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer jr.Close()
	keys := make([]string, 0, len(computed))
	for k := range computed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		s := tr.Begin("store.Put", 0, int64(i))
		err := ds.Put(k, computed[k])
		tr.End(s)
		if err != nil {
			return err
		}
		s = tr.Begin("store.Journal.Append", 0, int64(i))
		err = jr.Append(store.Record{Op: store.OpAccepted, ID: fmt.Sprint(i), Key: k})
		tr.End(s)
		if err != nil {
			return err
		}
	}
	for i, k := range keys {
		s := tr.Begin("store.Get", 0, int64(i))
		got, ok := ds.Get(k)
		tr.End(s)
		if !ok || !bytes.Equal(got, computed[k]) {
			return fmt.Errorf("store replay: key %.12s did not read back", k)
		}
	}
	return nil
}
