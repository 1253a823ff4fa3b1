package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	partition "repro"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/trace"
)

// daemon is an in-process mcpartd (memory cache only) on a loopback
// listener, and the request bodies the workload sends it.
type daemon struct {
	g *graph.Graph
	k int
	// prefix is every request body up to its seed: inline METIS text of g
	// and k.
	prefix []byte
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when hs.Serve has returned
	client *http.Client
	// cached holds the labels the warm-up requests received: what the
	// cache answers for those seeds.
	cached map[uint64][]int32
}

// startDaemon generates the input, serializes its METIS text into the
// request prefix and starts the server: the daemon workload's set-up.
func startDaemon(w workload, name string, seed uint64) (*daemon, error) {
	// The seeds mcpart and mcpartd derive from a mesh seed.
	g, err := buildGraph(name, seed*7919+7, seed+100)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := graph.WriteMETIS(&text, g); err != nil {
		return nil, err
	}
	quoted, err := json.Marshal(text.String())
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		g: g, k: w.k,
		prefix: fmt.Appendf(nil, `{"k":%d,"graph":%s,"seed":`, w.k, quoted),
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/partition",
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{}},
		cached: map[uint64][]int32{},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// close stops the listener, waits for the serve loop, and drains the
// worker pool.
func (d *daemon) close() {
	_ = d.hs.Shutdown(context.Background()) // no request is in flight
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// body is the request body for one seed.
func (d *daemon) body(seed uint64) []byte {
	b := append(slices.Clip(d.prefix), strconv.FormatUint(seed, 10)...)
	return append(b, '}')
}

// request sends one request and checks the response: status 200 and a
// valid partition whose reported cut and imbalance match a recomputation.
// It returns the latency from send to the last byte read.
func (d *daemon) request(seed uint64) (*service.PartitionResponse, float64, error) {
	body := d.body(seed)
	t := time.Now()
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	lat := since(t)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var pr service.PartitionResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return nil, 0, err
	}
	if err := checkPartition(d.g, d.k, pr.Labels, pr.Cut, maxImbalance(pr.Imbalances)); err != nil {
		return nil, 0, err
	}
	return &pr, lat, nil
}

func maxImbalance(imbs []float64) float64 { return slices.Max(append(imbs, 0)) }

// loadStats is what the closed loop measured.
type loadStats struct {
	hitLat    []float64
	missLat   []float64
	perLayer  samples // one per response: service.run_ms, queue_ms, overhead_ms
	imbMax    float64
	completed int
	elapsed   float64
}

// add records one checked response.
func (ls *loadStats) add(pr *service.PartitionResponse, lat float64) {
	ls.completed++
	ls.imbMax = max(ls.imbMax, maxImbalance(pr.Imbalances))
	if pr.Cached {
		ls.hitLat = append(ls.hitLat, lat)
		ls.perLayer = append(ls.perLayer, sample{"service.overhead_ms": 1000 * lat})
		return
	}
	ls.missLat = append(ls.missLat, lat)
	ls.perLayer = append(ls.perLayer, sample{
		"service.run_ms":      pr.RunMS,
		"service.queue_ms":    pr.QueueMS,
		"service.overhead_ms": 1000*lat - pr.RunMS - pr.QueueMS,
	})
}

// runDaemon runs the daemon workload. It first fills the cache with one
// miss per seed of the run's list, and then repeats those (graph, seed)
// pairs, so every timed request is a cache hit. The warm-up misses give
// the service's run and queue times.
func runDaemon(w workload, o options) (*result, error) {
	name := w.graphName(o.tiny)
	res := &result{}
	d, setupS, err := setup(res, func() (*daemon, error) { return startDaemon(w, name, o.seed) }, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.note("%s metis_bytes=%d", inputNote(d.g, name), len(d.prefix))
	sc := newSeedCheck()
	seeds := partSeeds(o.seed, w.seeds)
	warm := &loadStats{}
	for _, seed := range seeds {
		res.attempted++
		pr, lat, err := d.request(seed)
		if err == nil {
			err = sc.add(seed, pr.Labels, pr.Cut)
		}
		if err != nil {
			res.fail("warm-up seed %d: %v", seed, err)
			continue
		}
		warm.add(pr, lat)
		d.cached[seed] = pr.Labels
	}
	latencyNote(res, "warm-up miss", warm.missLat)
	loadSeconds := o.seconds
	if o.trace {
		loadSeconds = o.seconds / 2
	}
	ls := d.load(seeds, loadSeconds, sc, res)
	if o.trace {
		traceDaemon(d, seeds, o.seconds-loadSeconds, warm, ls, res)
		return res, nil
	}

	lat := append(append([]float64(nil), ls.hitLat...), ls.missLat...)
	res.note("requests=%d hits=%d misses=%d req_per_s=%.4f", ls.completed, len(ls.hitLat), len(ls.missLat), float64(ls.completed)/ls.elapsed)
	latencyNote(res, "hit", ls.hitLat)
	latencyNote(res, "miss", ls.missLat)
	res.addEndToEnd(endToEnd{
		partP50:  median(lat),
		mvtxPerS: float64(d.g.NumVertices()) * float64(ls.completed) / ls.elapsed / 1e6,
		edgeCut:  sc.meanCut(seeds),
		imbMax:   ls.imbMax,
		setupS:   setupS,
	})
	return res, nil
}

// latencyNote prints a latency class's median, and its 90th percentile
// once at least ten samples lie beyond it.
func latencyNote(res *result, class string, lat []float64) {
	if len(lat) > 0 {
		res.note("%s_p50_ms=%.3f", class, 1000*median(lat))
	}
	if len(lat) >= 100 {
		res.note("%s_p90_ms=%.3f", class, 1000*quantile(lat, 0.9))
	}
}

// load runs the closed loop over the cached seeds for the given seconds:
// one client that sends its next request when the previous response has
// been read and checked.
func (d *daemon) load(seeds []uint64, seconds float64, sc *seedCheck, res *result) *loadStats {
	ls := &loadStats{}
	start := time.Now()
	for i := 0; since(start) < seconds; i++ {
		s := seeds[i%len(seeds)]
		res.attempted++
		pr, lat, err := d.request(s)
		if err == nil {
			// A hit must return exactly the labels of the miss that
			// filled it; sc holds the first labels per seed.
			err = sc.add(s, pr.Labels, pr.Cut)
		}
		if err != nil {
			res.fail("seed %d: %v", s, err)
		} else {
			ls.add(pr, lat)
		}
	}
	ls.elapsed = since(start)
	return ls
}

// traceDaemon is the traced part of a daemon run: it replays request
// bodies in process through the service's ingest and encode steps (JSON
// decode, graph.ReadMETIS, JSON encode), once untraced and once under
// spans. A replay takes the cached labels themselves, so it has no label
// fidelity check; the parsed graph is checked against the generated one.
func traceDaemon(d *daemon, seeds []uint64, seconds float64, warm, ls *loadStats, res *result) {
	ss := append(warm.perLayer, ls.perLayer...)
	ss = append(ss, sample{"service.hit_frac": float64(len(ls.hitLat)) / float64(max(ls.completed, 1))})
	start := time.Now()
	for i := 0; i < 1 || since(start) < seconds; i++ {
		seed := seeds[i%len(seeds)]
		res.attempted += 2
		body := d.body(seed)
		runtime.GC()
		t := time.Now()
		err := replay(d, body, nil)
		untraced := since(t)
		if err != nil {
			res.fail("replay seed %d: %v", seed, err)
			continue
		}
		s := sample{"mem.finest_csr_mb": float64(csrBytes(d.g)) / mb}
		tr := trace.New("perfbench")
		runtime.GC()
		before := readRuntime()
		t = time.Now()
		err = replay(d, body, tr.Rank(0))
		s["trace.wall_s"] = since(t)
		s.addGC(before, readRuntime())
		s["trace.overhead_s"] = s["trace.wall_s"] - untraced
		if err != nil {
			res.fail("traced replay seed %d: %v", seed, err)
			continue
		}
		ph := tr.PhaseSeconds()
		for _, l := range []string{"service.decode", "graph.parse", "service.encode"} {
			s[l+"_ms"] = 1000 * ph[l]
		}
		ss = append(ss, s)
	}
	ss.shareNote(res)
	ss.addPerLayer(res)
}

// replay runs one request body through the steps the daemon takes on a
// cache hit: decode the JSON, parse the METIS text, take the cached
// labels, encode the response. With rk non-nil each step is a span.
func replay(d *daemon, body []byte, rk *trace.Rank) error {
	rk.Begin("service.decode")
	var req service.PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	rk.End()
	if err != nil {
		return err
	}
	rk.Begin("graph.parse")
	g, err := graph.ReadMETIS(strings.NewReader(req.Graph))
	rk.End()
	if err != nil {
		return err
	}
	if !slices.Equal(g.Adjncy, d.g.Adjncy) || !slices.Equal(g.Vwgt, d.g.Vwgt) || !slices.Equal(g.Adjwgt, d.g.Adjwgt) {
		return errors.New("parsed graph differs from the generated one")
	}
	labels := d.cached[req.Seed]
	if labels == nil {
		return fmt.Errorf("seed %d was not cached", req.Seed)
	}
	resp := service.PartitionResponse{
		N: g.NumVertices(), M: g.Ncon, K: req.K, Seed: req.Seed,
		Cut: partition.EdgeCut(g, labels), Imbalances: partition.Imbalances(g, labels, req.K),
		Labels: labels,
	}
	rk.Begin("service.encode")
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(resp)
	rk.End()
	return err
}
