package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"
)

// execute runs one invocation: inputs, server and set-ups, then either
// the end-to-end measurement, in segments that each follow a set-up
// and a warm-up of their own, or the traced per-layer run.
func execute(o options, stdout io.Writer) (*result, error) {
	s, err := lookup(o.workload, o.tiny)
	if err != nil {
		return nil, err
	}
	provenance(stdout, o)
	b := newBench(s, o.seed)
	if err := b.start(); err != nil {
		return nil, err
	}
	defer b.stop()
	ctx := context.Background()

	reps, segments := s.setupReps, max(s.segments, 1)
	if o.trace || b.rate > 0 {
		segments = 1
	}
	if o.trace {
		reps = 1
	}
	before := heapMiB()
	heap := 0.0
	var setups []setupTimes
	setup := func() error {
		st, err := b.setup(ctx)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
		if len(setups) == 1 {
			heap = heapMiB() - before
		}
		if b.rate > 0 {
			b.resetModel()
		}
		return nil
	}
	for r := 0; r < reps-segments; r++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	res := &result{}
	total := &loadStats{}
	d := time.Duration(o.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(o.seed))
	var first int64 // next request number, so segments walk the query pool
	// startSegment sets up afresh and warms up with a second of
	// closed-loop searches, checked like the rest.
	startSegment := func() error {
		if err := setup(); err != nil {
			return err
		}
		warm := b.closedLoop(ctx, time.Second, 0, first, nil)
		total.merge(warm)
		first += warm.attempted
		return nil
	}
	if o.trace {
		if err := startSegment(); err != nil {
			return nil, err
		}
		err = b.traced(ctx, o, d, rng, first, setups[0], total, res)
	} else {
		var loads, replays []*loadStats
		for seg := 0; seg < segments; seg++ {
			if err := startSegment(); err != nil {
				return nil, err
			}
			load, replay := b.measure(ctx, d/time.Duration(segments), rng, first, nil)
			first += load.attempted
			loads, replays = append(loads, load), append(replays, replay)
		}
		err = b.endToEnd(stdout, loads, replays, setups, heap, total, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = total.attempted
	res.Failed = total.failed + total.shed + total.wrong
	res.wrong = total.wrong
	res.Correct = total.wrong == 0
	return res, nil
}

// measure runs the workload's served load for d: the closed loop from
// request number first, or the open loop's next schedule followed by
// the quiet replay.
func (b *bench) measure(ctx context.Context, d time.Duration, rng *rand.Rand, first int64, tr *tracer) (load, replay *loadStats) {
	if b.rate == 0 {
		return b.closedLoop(ctx, d, 0, first, tr), nil
	}
	load = b.openLoop(ctx, b.schedule(rng, d), tr)
	return load, b.replay(ctx)
}

// endToEnd reports the measured segments of an untraced run: qps and
// read_p50_ms are medians over the segments, recall is pooled over
// them (over the quiet replays when the load writes).
func (b *bench) endToEnd(stdout io.Writer, loads, replays []*loadStats,
	setups []setupTimes, heap float64, total *loadStats, res *result) error {
	recall := &loadStats{}
	var qps []float64
	var p50 []time.Duration
	for i, load := range loads {
		total.merge(load)
		if replays[i] != nil {
			total.merge(replays[i])
			recall.merge(replays[i])
		} else {
			recall.merge(load)
		}
		sum := summarize(load)
		fmt.Fprintf(stdout, "# segment %d: %d queries in %.3fs; %s\n", i, len(load.reads), load.elapsed.Seconds(), sum.note)
		qps = append(qps, sum.qps)
		p50 = append(p50, sum.p50)
	}
	totals := make([]time.Duration, len(setups))
	for i, s := range setups {
		totals[i] = s.total
	}
	res.set("qps", "queries/s", medianF(qps))
	res.set("read_p50_ms", "ms", ms(median(p50)))
	res.set("recall_at_10", "fraction", float64(recall.hit)/float64(recall.slots))
	res.set("ok_frac", "fraction", 1-float64(total.failed+total.shed+total.wrong)/float64(total.attempted))
	res.set("setup_s", "s", median(totals).Seconds())
	res.set("mem_mb", "MiB", heap)
	return nil
}

// traced runs the ladder, then the served load twice, untraced and
// with every search force-traced, each for half of d.
func (b *bench) traced(ctx context.Context, o options, d time.Duration, rng *rand.Rand, first int64,
	setup setupTimes, total *loadStats, res *result) error {
	t := newTracer()
	m := make(map[string]float64)
	m["setup.load_s"] = setup.load.Seconds()
	m["setup.build_s"] = setup.build.Seconds()

	wrong, err := b.ladder(ctx, t, m)
	total.wrong += wrong
	if err != nil {
		return err
	}

	s0, err := b.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	plain, replay := b.measure(ctx, d/2, rng, first, nil)
	total.merge(plain)
	if replay != nil {
		total.merge(replay)
	}
	traced, replay := b.measure(ctx, d/2, rng, first+plain.attempted, t)
	total.merge(traced)
	if replay != nil {
		total.merge(replay)
	}
	s1, err := b.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}

	plainQPS := float64(len(plain.reads)) / plain.elapsed.Seconds()
	tracedQPS := float64(len(traced.reads)) / traced.elapsed.Seconds()
	m["trace.qps"] = tracedQPS
	m["trace.overhead_frac"] = 1 - tracedQPS/plainQPS
	r90, _ := tail(plain.reads, 0.90)
	r99, _ := tail(plain.reads, 0.99)
	m["loadgen.read_p90_ms"] = ms(r90)
	m["loadgen.read_p99_ms"] = ms(r99)
	if late, _ := tail(plain.late, 0.99); len(plain.late) > 0 {
		m["loadgen.late_p99_ms"] = ms(late)
	}
	m["loadgen.inflight_max"] = float64(plain.inflightMax)
	if len(plain.writes) > 0 {
		w99, _ := tail(plain.writes, 0.99)
		m["loadgen.write_p50_ms"] = ms(median(plain.writes))
		m["loadgen.write_p99_ms"] = ms(w99)
	}
	for _, stage := range serverStages {
		m["server."+stage+"_us"] = medianF(t.stages[stage])
	}
	r0, r1 := s0.Regions[regionName], s1.Regions[regionName]
	if dq := r1.Batches - r0.Batches; dq > 0 {
		m["server.avg_batch"] = float64(r1.Queries-r0.Queries) / float64(dq)
	}
	m["server.shed"] = float64(s1.Rejected)
	if mu := r1.Mutation; mu != nil {
		m["mutate.compactions"] = float64(mu.CompactPasses)
		m["mutate.vault_rewrites"] = float64(mu.VaultRewrites)
		if rows := mu.LiveRows + mu.DeadRows; rows > 0 {
			m["mutate.dead_frac"] = float64(mu.DeadRows) / float64(rows)
		}
	}

	known := make(map[string]bool, len(perLayer))
	for _, p := range perLayer {
		known[p.name] = true
		res.set(p.name, p.unit, m[p.name])
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("per-layer metric %q is not in the metric list", name)
		}
	}
	return t.write(o.spans, map[string]any{
		"workload": o.workload, "seed": o.seed, "git_rev": gitRev(), "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"spans": len(t.spans), "config": b.cfg,
	})
}
