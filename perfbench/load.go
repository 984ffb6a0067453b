package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssam/internal/client"
	"ssam/internal/server/wire"
)

// loadStats is what one stretch of served load measured.
type loadStats struct {
	elapsed     time.Duration
	reads       []time.Duration // per answered search
	writes      []time.Duration // per upsert/delete request
	late        []time.Duration // open loop: send time minus scheduled time
	inflightMax int64

	attempted, failed, shed, wrong int64
	hit, slots                     int64 // recall against the oracle
}

func (s *loadStats) merge(o *loadStats) {
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
	s.late = append(s.late, o.late...)
	s.inflightMax = max(s.inflightMax, o.inflightMax)
	s.attempted += o.attempted
	s.failed += o.failed
	s.shed += o.shed
	s.wrong += o.wrong
	s.hit += o.hit
	s.slots += o.slots
}

// fail classifies a request error: shed load or any other failure.
func (s *loadStats) fail(err error) {
	if errors.Is(err, client.ErrOverloaded) {
		s.shed++
	} else {
		s.failed++
	}
}

// search issues one /search request for pool query q. With a tracer
// it force-traces the request and records the client span and the
// server's stage spans under it.
func (b *bench) search(ctx context.Context, q int, req int64, tr *tracer) ([]wire.Neighbor, error) {
	if tr == nil {
		return b.cl.Search(ctx, regionName, b.queries[q], k)
	}
	t0 := time.Now()
	resp, err := b.cl.SearchTraced(ctx, regionName, b.queries[q], k)
	if err == nil {
		id := tr.add("client.search", 0, req, t0, time.Now())
		tr.addServer(id, req, resp.Trace)
	}
	return resp.Results, err
}

// checkStatic checks an answer over the loaded (unchanging) dataset:
// exact workloads must match the oracle id for id; approximate ones
// must be well formed and count toward recall.
func (b *bench) checkStatic(st *loadStats, q int, got []wire.Neighbor) {
	inRange := func(id int) bool { return id >= 0 && id < b.n }
	if !wellFormed(got, inRange) || (b.exact && !sameIDs(got, b.truth[q])) {
		st.wrong++
	}
	st.hit += int64(hits(got, b.truth[q]))
	st.slots += k
}

// closedLoop runs the clients back to back for d, or, when d is zero,
// until they have sent requests requests between them. first offsets
// the request numbering so consecutive calls walk the query pool.
func (b *bench) closedLoop(ctx context.Context, d time.Duration, requests, first int64, tr *tracer) *loadStats {
	var mu sync.Mutex
	total := &loadStats{inflightMax: clients}
	var next atomic.Int64
	next.Store(first)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &loadStats{}
			for {
				j := next.Add(1) - 1
				if (d > 0 && time.Since(start) >= d) || (d == 0 && j-first >= requests) {
					break
				}
				q := int(j % int64(len(b.queries)))
				t0 := time.Now()
				out, err := b.search(ctx, q, j, tr)
				lat := time.Since(t0)
				st.attempted++
				if err != nil {
					st.fail(err)
					continue
				}
				st.reads = append(st.reads, lat)
				b.checkStatic(st, q, out)
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// --- open loop (mixed-open) ---

// op is one scheduled operation of the open loop.
type op struct {
	at   time.Duration // scheduled send time from the loop's start
	kind byte          // 's'earch, 'u'psert, 'd'elete
	id   int           // write target
	row  []float32     // upsert payload
	q    int           // search: pool query
}

// writeAck is one acknowledged, committed write.
type writeAck struct {
	seq uint64
	op  op
}

// model is the benchmark's brute-force copy of the live rows, updated
// from acknowledged writes in commit (sequence) order.
type model struct {
	rows     map[int][]float32
	everLive map[int]bool // every id that was or may have been live
	nextNew  int          // next never-used id for inserting upserts
	nextRow  int          // next payload row in bench.extra
}

func (b *bench) resetModel() {
	b.model = &model{rows: make(map[int][]float32, b.n), everLive: make(map[int]bool, b.n), nextNew: b.n}
	for i := 0; i < b.n; i++ {
		b.model.rows[i] = b.row(i)
		b.model.everLive[i] = true
	}
}

// schedule draws the open loop's operations for d: exactly
// round(rate·d) arrivals with exponential gaps rescaled to span d,
// and exact upsert/delete shares in seeded random order. Half the
// upserts, drawn at random, insert a new id; the rest replace an
// original row.
func (b *bench) schedule(rng *rand.Rand, d time.Duration) []op {
	n := int(math.Round(b.rate * d.Seconds()))
	ops := make([]op, n)
	nu := int(math.Round(float64(n) * b.upsertFrac))
	nd := int(math.Round(float64(n) * b.deleteFrac))
	for i := range ops {
		switch {
		case i < nu:
			ops[i].kind = 'u'
		case i < nu+nd:
			ops[i].kind = 'd'
		default:
			ops[i].kind = 's'
		}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	gaps := make([]float64, n)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	var at float64
	for i := range ops {
		at += gaps[i] / sum * float64(d)
		ops[i].at = time.Duration(at)
		switch ops[i].kind {
		case 'u':
			if rng.Intn(2) == 0 {
				ops[i].id = b.model.nextNew
				b.model.nextNew++
			} else {
				ops[i].id = rng.Intn(b.n)
			}
			ops[i].row = b.extra[b.model.nextRow%len(b.extra)]
			b.model.nextRow++
			b.model.everLive[ops[i].id] = true
		case 'd':
			ops[i].id = rng.Intn(b.n)
		default:
			ops[i].q = rng.Intn(len(b.queries))
		}
	}
	return ops
}

// openLoop sends ops on their schedule from at most clients workers.
// Each latency runs from the operation's scheduled time, so a request
// waiting for a free connection carries the wait. Acknowledged writes
// are applied to the model afterwards in sequence order.
func (b *bench) openLoop(ctx context.Context, ops []op, tr *tracer) *loadStats {
	var mu sync.Mutex
	total := &loadStats{}
	var acks []writeAck
	var next, inflight, inflightMax atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &loadStats{}
			var mine []writeAck
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					break
				}
				o := ops[i]
				due := start.Add(o.at)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				st.late = append(st.late, time.Since(due))
				cur := inflight.Add(1)
				for m := inflightMax.Load(); cur > m && !inflightMax.CompareAndSwap(m, cur); m = inflightMax.Load() {
				}
				st.attempted++
				switch o.kind {
				case 's':
					out, err := b.search(ctx, o.q, i, tr)
					lat := time.Since(due)
					if err != nil {
						st.fail(err)
						break
					}
					st.reads = append(st.reads, lat)
					if !wellFormed(out, func(id int) bool { return b.model.everLive[id] }) {
						st.wrong++
					}
				case 'u':
					resp, err := b.cl.Upsert(ctx, regionName, []int{o.id}, [][]float32{o.row})
					if err != nil {
						st.fail(err)
						break
					}
					st.writes = append(st.writes, time.Since(due))
					mine = append(mine, writeAck{resp.Seq, o})
				case 'd':
					resp, err := b.cl.Delete(ctx, regionName, []int{o.id})
					if err != nil {
						st.fail(err)
						break
					}
					st.writes = append(st.writes, time.Since(due))
					if resp.Applied == 1 {
						mine = append(mine, writeAck{resp.Seq, o})
					}
				}
				inflight.Add(-1)
			}
			mu.Lock()
			total.merge(st)
			acks = append(acks, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.inflightMax = inflightMax.Load()
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	for _, a := range acks {
		if a.op.kind == 'u' {
			b.model.rows[a.op.id] = a.op.row
		} else {
			delete(b.model.rows, a.op.id)
		}
	}
	return total
}

// replay runs once the write stream is quiet: every pool query must
// now equal the brute-force answer over the model id for id.
func (b *bench) replay(ctx context.Context) *loadStats {
	st := &loadStats{}
	ids := make([]int, 0, len(b.model.rows))
	for id := range b.model.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([][]float32, len(ids))
	for i, id := range ids {
		rows[i] = b.model.rows[id]
	}
	for _, q := range b.queries {
		st.attempted++
		got, err := b.cl.Search(ctx, regionName, q, k)
		if err != nil {
			st.fail(err)
			continue
		}
		want := oracle(rows, ids, q)
		if !sameIDs(got, want) {
			st.wrong++
		}
		st.hit += int64(hits(got, want))
		st.slots += k
	}
	return st
}

// --- summaries ---

// summary is the end-to-end read throughput and median latency of a
// run, with a note on its tail.
type summary struct {
	qps  float64
	p50  time.Duration
	note string
}

// summarize reports a stretch of reads: throughput over the whole
// stretch and the median latency of every read in it. The tail goes
// only into the note: on a small shared VM it is set by time stolen by
// the hypervisor and varies too much between runs to bound.
func summarize(st *loadStats) summary {
	p90, pct90 := tail(st.reads, 0.90)
	p99, pct99 := tail(st.reads, 0.99)
	return summary{
		qps: float64(len(st.reads)) / st.elapsed.Seconds(), p50: median(st.reads),
		note: fmt.Sprintf("%d reads; p%.2f %.3f ms; p%.2f %.3f ms", len(st.reads), pct90, ms(p90), pct99, ms(p99)),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of ds (0 when empty).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail is the highest percentile up to p that leaves at least ten
// samples beyond it (nearest rank), with the percentile it reached.
func tail(ds []time.Duration, p float64) (time.Duration, float64) {
	n := len(ds)
	if n == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(n))) - 1
	if n-1-i < 10 {
		i = max(n-11, 0)
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
