package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/graph"
	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/pq"
	"ssam/internal/server/batcher"
	"ssam/internal/server/wire"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// perLayer is every per-layer metric in print order. A traced run
// prints all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"roof.copy_gbps", "GB/s"},
	{"vec.ns_per_dim", "ns"},
	{"vec.gbps", "GB/s"},
	{"vec.gflops", "GFLOP/s"},
	{"vec.roof_frac", "fraction"},
	{"topk.ns_per_push", "ns"},
	{"topk.kept_frac", "fraction"},
	{"knn.scan_us", "us"},
	{"knn.batch_us_per_query", "us"},
	{"knn.dist_evals_per_query", "count"},
	{"pq.train_s", "s"},
	{"pq.encode_s", "s"},
	{"pq.table_us", "us"},
	{"pq.scan_us", "us"},
	{"pq.rerank_us", "us"},
	{"pq.code_evals_per_query", "count"},
	{"pq.rerank_evals_per_query", "count"},
	{"pq.roof_frac", "fraction"},
	{"graph.build_s", "s"},
	{"graph.search_us", "us"},
	{"graph.dist_evals_per_query", "count"},
	{"mutate.upsert_us", "us"},
	{"mutate.delete_us", "us"},
	{"mutate.compact_ms", "ms"},
	{"mutate.compactions", "count"},
	{"mutate.vault_rewrites", "count"},
	{"mutate.dead_frac", "fraction"},
	{"mutate.search_us", "us"},
	{"ssam.search_us", "us"},
	{"ssam.batch_us_per_query", "us"},
	{"ssam.build_s", "s"},
	{"batcher.wait_us", "us"},
	{"batcher.exec_us", "us"},
	{"batcher.batch_size", "count"},
	{"batcher.flushes", "count"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"wire.load_decode_s", "s"},
	{"server.handler_us", "us"},
	{"server.admission_us", "us"},
	{"server.queue_us", "us"},
	{"server.exec_us", "us"},
	{"server.avg_batch", "count"},
	{"server.shed", "count"},
	{"client.rtt_us", "us"},
	{"client.net_us", "us"},
	{"loadgen.read_p90_ms", "ms"},
	{"loadgen.read_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.write_p50_ms", "ms"},
	{"loadgen.write_p99_ms", "ms"},
	{"setup.load_s", "s"},
	{"setup.build_s", "s"},
	{"trace.qps", "queries/s"},
	{"trace.overhead_frac", "fraction"},
}

const (
	probeQs   = 64 // queries per single-query probe
	probeReps = 5  // repetitions of whole-pass probes
)

// ladder times each layer's public entry points from outside, from
// the distance kernel up to the in-memory HTTP handler and the typed
// client, and stores the per-layer metrics in m. It returns the count
// of wrong answers the probes saw.
func (b *bench) ladder(ctx context.Context, t *tracer, m map[string]float64) (int64, error) {
	var wrong int64
	qs := b.queries[:min(probeQs, len(b.queries))]

	roof := b.roofRung(t)
	m["roof.copy_gbps"] = roof
	b.vecRung(t, m, roof)
	wrong += b.knnRung(t, m, qs)
	if err := b.pqRung(t, m, qs, roof); err != nil {
		return wrong, err
	}
	if b.cfg.Mode == "graph" {
		b.graphRung(t, m, qs)
	}

	region, err := b.regionRung(t, m, qs)
	if err != nil {
		return wrong, err
	}
	defer region.Free()
	if err := b.batcherRung(ctx, t, m, region, qs); err != nil {
		return wrong, err
	}
	if b.rate > 0 {
		if err := b.mutateRung(t, m, region, qs); err != nil {
			return wrong, err
		}
	}
	if err := b.wireRung(t, m, qs); err != nil {
		return wrong, err
	}
	w, err := b.serverRung(ctx, t, m, qs)
	return wrong + w, err
}

// roofRung copies a buffer much larger than the last-level cache and
// reports (bytes read + bytes written) per second, the STREAM "copy"
// convention.
func (b *bench) roofRung(t *tracer) float64 {
	src := make([]byte, b.roofBytes)
	dst := make([]byte, b.roofBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault in dst's pages
	var ds []time.Duration
	for r := 0; r < probeReps; r++ {
		ds = append(ds, t.timed("roof.copy", int64(r), func() { copy(dst, src) }))
	}
	src, dst = nil, nil
	debug.FreeOSMemory()
	return 2 * float64(b.roofBytes) / median(ds).Seconds() / 1e9
}

// vecRung scans the dataset with vec.SquaredL2 (one span per full
// pass), then pushes the same distances through a topk.Selector.
func (b *bench) vecRung(t *tracer, m map[string]float64, roof float64) {
	dims := b.n * b.dim
	passes := min(max(64_000_000/dims, probeReps), 200)
	dists := make([][]float64, min(8, len(b.queries)))
	var sink float64
	var ds []time.Duration
	for p := 0; p < passes; p++ {
		q := b.queries[p%len(b.queries)]
		var out []float64
		if p < len(dists) {
			out = make([]float64, b.n)
			dists[p] = out
		}
		ds = append(ds, t.timed("vec.pass", int64(p), func() {
			for i := 0; i < b.n; i++ {
				d := vec.SquaredL2(q, b.row(i))
				sink += d
				if out != nil {
					out[i] = d
				}
			}
		}))
	}
	d := median(ds)
	gbps := float64(dims*4) / d.Seconds() / 1e9
	m["vec.ns_per_dim"] = float64(d.Nanoseconds()) / float64(dims)
	m["vec.gbps"] = gbps
	m["vec.gflops"] = float64(2*dims) / d.Seconds() / 1e9
	m["vec.roof_frac"] = gbps / roof
	_ = sink

	var pushes, kept int
	ds = ds[:0]
	for p := 0; p < max(passes, len(dists)); p++ {
		row := dists[p%len(dists)]
		sel := topk.New(k)
		ds = append(ds, t.timed("topk.pass", int64(p), func() {
			for i, d := range row {
				if sel.Push(i, d) {
					kept++
				}
			}
		}))
		pushes += len(row)
	}
	m["topk.ns_per_push"] = float64(median(ds).Nanoseconds()) / float64(b.n)
	m["topk.kept_frac"] = float64(kept) / float64(pushes)
}

// knnRung runs the exact engine on the dataset, checking each answer
// against the oracle.
func (b *bench) knnRung(t *tracer, m map[string]float64, qs [][]float32) int64 {
	eng := knn.NewEngine(b.data, b.dim, vec.Euclidean, 0)
	var wrong int64
	var evals int
	for i, q := range qs {
		var res []topk.Result
		var st knn.Stats
		t.timed("knn.search", int64(i), func() { res, st = eng.SearchStats(q, k) })
		evals += st.DistEvals
		if !sameIDs(toWire(res), b.truth[i]) {
			wrong++
		}
	}
	batch := qs[:min(32, len(qs))]
	var ds []time.Duration
	for r := 0; r < probeReps; r++ {
		ds = append(ds, t.timed("knn.batch", int64(r), func() { eng.SearchBatch(batch, k) }))
	}
	m["knn.scan_us"] = us(median(t.durations("knn.search")))
	m["knn.batch_us_per_query"] = us(median(ds)) / float64(len(batch))
	m["knn.dist_evals_per_query"] = float64(evals) / float64(len(qs))
	return wrong
}

// pqIndex is the quantized engine the pq rung builds on every
// workload's rows: 8 code bytes per row and an exact re-rank of the
// top 1000 ADC candidates.
var pqIndex = wire.IndexParams{M: 8, Rerank: 1000, Seed: 1}

// pqRung trains and encodes a codebook on the workload's rows, then
// times the three stages of a quantized query separately: table
// build, ADC scan into a top-R selector, and exact re-rank of the R
// candidates. No workload serves a quantized region: its cache-bound
// scan made served throughput spread by a quarter of the median
// between runs on a shared 2-vCPU host, three times the spread of the
// served workloads.
func (b *bench) pqRung(t *tracer, m map[string]float64, qs [][]float32, roof float64) error {
	ip := pqIndex
	var cb *pq.Codebook
	var err error
	train := t.timed("pq.train", 0, func() {
		cb, err = pq.Train(b.data, b.dim, pq.Params{M: ip.M, Sample: ip.Sample, Seed: ip.Seed})
	})
	if err != nil {
		return fmt.Errorf("pq train: %w", err)
	}
	var codes []byte
	encode := t.timed("pq.encode", 0, func() { codes = cb.Encode(b.data) })
	packed := pq.Pack(codes, cb.M())
	r := min(max(ip.Rerank, k), b.n)
	var lut []float32
	var codeEvals, rerankEvals int
	for i, q := range qs {
		t.timed("pq.table", int64(i), func() { lut = cb.Table(vec.Euclidean, q, lut) })
		sel := topk.New(r)
		t.timed("pq.scan", int64(i), func() {
			packed.Scan(lut, 0, b.n, func(base int, dists []float32) {
				for j, d := range dists {
					sel.Push(base+j, float64(d))
				}
			})
		})
		cands := sel.Results()
		codeEvals += b.n
		rerankEvals += len(cands)
		t.timed("pq.rerank", int64(i), func() {
			exact := topk.New(k)
			for _, c := range cands {
				exact.Push(c.ID, vec.SquaredL2(q, b.row(c.ID)))
			}
		})
	}
	scan := median(t.durations("pq.scan"))
	m["pq.train_s"] = train.Seconds()
	m["pq.encode_s"] = encode.Seconds()
	m["pq.table_us"] = us(median(t.durations("pq.table")))
	m["pq.scan_us"] = us(scan)
	m["pq.rerank_us"] = us(median(t.durations("pq.rerank")))
	m["pq.code_evals_per_query"] = float64(codeEvals) / float64(len(qs))
	m["pq.rerank_evals_per_query"] = float64(rerankEvals) / float64(len(qs))
	m["pq.roof_frac"] = float64(b.n*cb.M()) / scan.Seconds() / 1e9 / roof
	return nil
}

// graphRung builds the HNSW index directly and searches it.
func (b *bench) graphRung(t *tracer, m map[string]float64, qs [][]float32) {
	ip := b.cfg.Index
	var g *graph.Index
	build := t.timed("graph.build", 0, func() {
		g = graph.Build(b.data, b.dim, graph.Params{M: ip.M, EfConstruction: ip.EfConstruction, EfSearch: ip.EfSearch, Seed: ip.Seed})
	})
	var evals int
	for i, q := range qs {
		var st graph.Stats
		t.timed("graph.search", int64(i), func() { _, st = g.SearchStats(q, k) })
		evals += st.DistEvals
	}
	m["graph.build_s"] = build.Seconds()
	m["graph.search_us"] = us(median(t.durations("graph.search")))
	m["graph.dist_evals_per_query"] = float64(evals) / float64(len(qs))
}

// regionRung builds an ssam.Region with the workload's configuration
// outside the server and times Search and SearchBatchSpan on it.
func (b *bench) regionRung(t *tracer, m map[string]float64, qs [][]float32) (*ssam.Region, error) {
	mode, err := ssam.ParseMode(b.cfg.Mode)
	if err != nil {
		return nil, err
	}
	region, err := ssam.New(b.dim, ssam.Config{Mode: mode, Index: ssam.IndexParams(b.cfg.Index)})
	if err != nil {
		return nil, err
	}
	if err := region.LoadFloat32(b.data); err != nil {
		region.Free()
		return nil, err
	}
	build := t.timed("ssam.build", 0, func() { err = region.BuildIndex() })
	if err != nil {
		region.Free()
		return nil, fmt.Errorf("build: %w", err)
	}
	for i, q := range qs {
		t.timed("ssam.search", int64(i), func() { _, err = region.Search(q, k) })
		if err != nil {
			region.Free()
			return nil, fmt.Errorf("region search: %w", err)
		}
	}
	batch := qs[:min(32, len(qs))]
	var ds []time.Duration
	for r := 0; r < probeReps; r++ {
		ds = append(ds, t.timed("ssam.batch", int64(r), func() { _, err = region.SearchBatchSpan(batch, k, nil) }))
		if err != nil {
			region.Free()
			return nil, fmt.Errorf("region batch: %w", err)
		}
	}
	m["ssam.build_s"] = build.Seconds()
	m["ssam.search_us"] = us(median(t.durations("ssam.search")))
	m["ssam.batch_us_per_query"] = us(median(ds)) / float64(len(batch))
	return region, nil
}

// batcherRung puts a batcher with the server's default window and
// size cap in front of the region, wrapping the SearchFunc it is
// given, and drives it from the closed-loop clients. A request's wait
// is its Search time minus the execution of the batch it rode in.
func (b *bench) batcherRung(ctx context.Context, t *tracer, m map[string]float64, region *ssam.Region, qs [][]float32) error {
	var flushes, size atomic.Int64
	exec := func(batch [][]float32, kk int, sp *obs.Span) (res [][]ssam.Result, err error) {
		flushes.Add(1)
		size.Add(int64(len(batch)))
		t.timed("batcher.exec", int64(len(batch)), func() { res, err = region.SearchBatchSpan(batch, kk, sp) })
		return res, err
	}
	bt := batcher.New(exec, batcher.Options{})
	defer bt.Close()
	perClient := 2 * len(qs)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < perClient*clients; i += clients {
				var err error
				t.timed("batcher.search", int64(i), func() { _, err = bt.Search(ctx, qs[i%len(qs)], k) })
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("batcher: %w", err)
		}
	}
	execD := median(t.durations("batcher.exec"))
	m["batcher.wait_us"] = us(median(t.durations("batcher.search")) - execD)
	m["batcher.exec_us"] = us(execD)
	m["batcher.batch_size"] = float64(size.Load()) / float64(flushes.Load())
	m["batcher.flushes"] = float64(flushes.Load())
	return nil
}

// mutateRung upserts, deletes, searches and compacts the region
// directly, through its RCU write path.
func (b *bench) mutateRung(t *tracer, m map[string]float64, region *ssam.Region, qs [][]float32) error {
	var err error
	for i := 0; i < 4*probeQs; i++ {
		id := i
		if i%2 == 0 {
			id = b.n + i
		}
		row := b.extra[i%len(b.extra)]
		t.timed("mutate.upsert", int64(i), func() { _, err = region.Upsert(id, row) })
		if err != nil {
			return fmt.Errorf("upsert: %w", err)
		}
	}
	// Deleting every third original row leaves each vault above the
	// compactor's garbage threshold, so CompactNow below rewrites them.
	for id := 0; id < b.n; id += 3 {
		t.timed("mutate.delete", int64(id), func() { _, _, err = region.Delete(id) })
		if err != nil {
			return fmt.Errorf("delete: %w", err)
		}
	}
	for i, q := range qs {
		t.timed("mutate.search", int64(i), func() { _, err = region.Search(q, k) })
		if err != nil {
			return fmt.Errorf("mutated search: %w", err)
		}
	}
	compact := t.timed("mutate.compact", 0, func() { _, err = region.CompactNow() })
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	m["mutate.upsert_us"] = us(median(t.durations("mutate.upsert")))
	m["mutate.delete_us"] = us(median(t.durations("mutate.delete")))
	m["mutate.search_us"] = us(median(t.durations("mutate.search")))
	m["mutate.compact_ms"] = ms(compact)
	return nil
}

// searchBodies are the /search request bodies the client sends for
// the probe queries.
func searchBodies(qs [][]float32) ([][]byte, error) {
	var bodies [][]byte
	for _, q := range qs {
		body, err := json.Marshal(wire.SearchRequest{Query: q, K: k})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// wireRung times the strict request decoders and the response encode
// the server performs, on the payloads this workload sends.
func (b *bench) wireRung(t *tracer, m map[string]float64, qs [][]float32) error {
	bodies, err := searchBodies(qs)
	if err != nil {
		return err
	}
	var reqBytes, respBytes int
	for i, body := range bodies {
		reqBytes += len(body)
		t.timed("wire.decode", int64(i), func() { _, err = wire.DecodeSearch(body) })
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		var buf bytes.Buffer
		resp := wire.SearchResponse{Results: wireNeighbors(b.truth[i])}
		t.timed("wire.encode", int64(i), func() { err = json.NewEncoder(&buf).Encode(resp) })
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		respBytes += buf.Len()
	}
	rows := make([][]float32, b.n)
	for i := range rows {
		rows[i] = b.row(i)
	}
	load, err := json.Marshal(wire.LoadRequest{Vectors: rows})
	if err != nil {
		return err
	}
	d := t.timed("wire.load_decode", 0, func() { _, err = wire.DecodeLoad(load) })
	if err != nil {
		return fmt.Errorf("load decode: %w", err)
	}
	m["wire.decode_us"] = us(median(t.durations("wire.decode")))
	m["wire.encode_us"] = us(median(t.durations("wire.encode")))
	m["wire.req_bytes"] = float64(reqBytes) / float64(len(bodies))
	m["wire.resp_bytes"] = float64(respBytes) / float64(len(bodies))
	m["wire.load_decode_s"] = d.Seconds()
	return nil
}

// serverRung runs the served region's search handler through
// Server.ServeHTTP into an in-memory recorder, then the same requests
// over loopback through the typed client, one at a time. Network and
// client cost is the difference of the two medians.
func (b *bench) serverRung(ctx context.Context, t *tracer, m map[string]float64, qs [][]float32) (int64, error) {
	bodies, err := searchBodies(qs)
	if err != nil {
		return 0, err
	}
	path := "/regions/" + regionName + "/search"
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		t.timed("server.handler", int64(i), func() { b.srv.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	st := &loadStats{}
	for i := range qs {
		var out []wire.Neighbor
		t.timed("client.rtt", int64(i), func() { out, err = b.search(ctx, i, int64(i), nil) })
		if err != nil {
			return 0, fmt.Errorf("client: %w", err)
		}
		b.checkStatic(st, i, out)
	}
	handler := median(t.durations("server.handler"))
	rtt := median(t.durations("client.rtt"))
	m["server.handler_us"] = us(handler)
	m["client.rtt_us"] = us(rtt)
	m["client.net_us"] = us(rtt - handler)
	return st.wrong, nil
}

func wireNeighbors(ns []neighbor) []wire.Neighbor {
	out := make([]wire.Neighbor, len(ns))
	for i, n := range ns {
		out[i] = wire.Neighbor{ID: n.id, Distance: n.dist}
	}
	return out
}

func toWire(rs []topk.Result) []wire.Neighbor {
	out := make([]wire.Neighbor, len(rs))
	for i, r := range rs {
		out[i] = wire.Neighbor{ID: r.ID, Distance: r.Dist}
	}
	return out
}
