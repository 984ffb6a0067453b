#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate. Every PR must leave this green:
#   gofmt clean, vet clean, everything builds, all tests pass under
#   the race detector.
set -euo pipefail
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The benchmark (perfbench/) is a nested module, so the root ./...
# patterns never build it; vet and self-test it against the current
# tree so an API change it depends on fails here, not at bench time.
(cd perfbench && go vet ./... && go test ./...)

# Benchmark smoke: compile and run every benchmark once so a bench
# that rots (bad setup, panic, API drift) fails the gate, without
# paying for real measurement iterations.
go test -run=NONE -bench=. -benchtime=1x ./...

# Vault-sweep smoke: the perf-trajectory generator behind
# BENCH_05_vaults.json must keep running end to end (tiny scale: this
# checks the harness, not the numbers).
go run ./cmd/ssam-bench -exp vaults -format json -scale 0.001 -queries 2 > /dev/null

# Graph-sweep smoke: the recall/QPS frontier generator behind
# BENCH_06_graph.json must keep running end to end.
go run ./cmd/ssam-bench -exp graph -format json -scale 0.001 -queries 2 > /dev/null

# Mutation-sweep smoke: the read-QPS-under-write-load generator behind
# BENCH_07_mutate.json must keep running end to end.
go run ./cmd/ssam-bench -exp mutate -format json -scale 0.001 -queries 2 > /dev/null

# Replica-sweep smoke: the availability-under-kill generator behind
# BENCH_08_replicas.json must keep running end to end.
go run ./cmd/ssam-bench -exp replicas -format json -scale 0.001 -queries 2 > /dev/null

# Quantized-sweep smoke: the recall/QPS generator behind
# BENCH_09_pq.json must keep running end to end (reranks above the
# tiny row count are skipped by the sweep itself).
go run ./cmd/ssam-bench -exp pq -format json -scale 0.001 -queries 2 > /dev/null

# Tiered-sweep smoke: the out-of-core QPS-vs-cache-fraction generator
# behind BENCH_10_tiered.json must keep running end to end. The small
# fractions force real eviction traffic, and every point self-checks
# bit-exactness against the in-RAM scan, so this also exercises the
# store's evict/reload path under the gate.
go run ./cmd/ssam-bench -exp tiered -format json -scale 0.001 -queries 2 > /dev/null

# ADC regression check: the quantized scan must stay meaningfully
# faster than the float32 scan on the identical benchmark shape
# (4096 x 64, k=10). Measured headroom is ~3.5x on the growth box; the
# 1.5x floor only trips if the blocked ADC kernel genuinely rots.
pq_bench=$(go test -run=NONE -bench='BenchmarkRegionSearchHost$|BenchmarkSearchPQ$' -benchtime=20x .)
pq_ratio=$(echo "$pq_bench" | awk '
    /BenchmarkRegionSearchHost/ { host = $3 }
    /BenchmarkSearchPQ/         { pq = $3 }
    END {
        if (host == "" || pq == "") { print "missing"; exit }
        printf "%.2f", host / pq
    }')
if [ "$pq_ratio" = "missing" ]; then
    echo "ci.sh: PQ regression check could not parse benchmark output:" >&2
    echo "$pq_bench" >&2
    exit 1
fi
if awk -v r="$pq_ratio" 'BEGIN { exit !(r < 1.5) }'; then
    echo "ci.sh: quantized scan only ${pq_ratio}x the float32 scan, below the 1.5x floor" >&2
    echo "$pq_bench" >&2
    exit 1
fi
echo "quantized scan speedup vs float32 scan: ${pq_ratio}x (floor 1.5x)"

# Tiered regression check: a fully-cached storage-backed region must
# stay within 1.2x of the in-RAM host scan on the identical benchmark
# shape (4096 x 64, k=10). Past the first pass every page is resident,
# so the only extra work is page pins and the vault merge — if this
# trips, the tier store's hot path has rotted.
tier_bench=$(go test -run=NONE -bench='BenchmarkRegionSearchHost$|BenchmarkRegionSearchTiered$' -benchtime=20x .)
tier_ratio=$(echo "$tier_bench" | awk '
    /BenchmarkRegionSearchHost/   { host = $3 }
    /BenchmarkRegionSearchTiered/ { tier = $3 }
    END {
        if (host == "" || tier == "") { print "missing"; exit }
        printf "%.2f", tier / host
    }')
if [ "$tier_ratio" = "missing" ]; then
    echo "ci.sh: tiered regression check could not parse benchmark output:" >&2
    echo "$tier_bench" >&2
    exit 1
fi
if awk -v r="$tier_ratio" 'BEGIN { exit !(r > 1.2) }'; then
    echo "ci.sh: fully-cached tiered scan is ${tier_ratio}x the in-RAM scan, above the 1.2x ceiling" >&2
    echo "$tier_bench" >&2
    exit 1
fi
echo "fully-cached tiered scan vs in-RAM scan: ${tier_ratio}x (ceiling 1.2x)"

# Write-mix smoke: stand a server up, drive a brief mixed read/write
# load through ssam-loadgen (upserts and deletes against a live linear
# region), and tear it down — the whole wire write path in one shot.
smoke_port=18741
go build -o /tmp/ssam-serve-ci ./cmd/ssam-serve
/tmp/ssam-serve-ci -addr 127.0.0.1:$smoke_port &
serve_pid=$!
trap 'kill $serve_pid 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$smoke_port") 2>/dev/null; then
        exec 3>&- || true
        break
    fi
    sleep 0.1
done
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$smoke_port" -region mutsmoke \
    -n 400 -dims 12 -clusters 4 -k 3 -duration 1s -concurrency 4 \
    -upsert-frac 0.2 -delete-frac 0.1
kill $serve_pid
wait $serve_pid 2>/dev/null || true
trap - EXIT

# Replica smoke: serve a 3-replica region with a chaos timer that
# kills replica 1 two seconds in, then drive live load across both a
# zero-downtime reload (1s in) and the kill (2s in). -fail-on-degraded
# makes the driver exit non-zero if a single query came back degraded
# or failed — the acceptance bar for replicated serving.
replica_port=18742
/tmp/ssam-serve-ci -addr 127.0.0.1:$replica_port \
    -preload glove:0.001 -preload-replicas 3 \
    -chaos-kill-replica 1 -chaos-after 2s &
serve_pid=$!
trap 'kill $serve_pid 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$replica_port") 2>/dev/null; then
        exec 3>&- || true
        break
    fi
    sleep 0.1
done
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$replica_port" \
    -region glove -setup=false -dims 100 -k 5 \
    -duration 4s -concurrency 4 -reload-at 1s -fail-on-degraded
# Zipfian multi-tenant smoke on the same server: three small
# replicated tenants, skewed traffic, zero degraded tolerated.
go run ./cmd/ssam-loadgen -addr "http://127.0.0.1:$replica_port" \
    -region tensmoke -tenants 3 -zipf 1.3 -replicas 2 \
    -n 300 -dims 8 -clusters 4 -k 3 \
    -duration 1s -concurrency 4 -fail-on-degraded
kill $serve_pid
wait $serve_pid 2>/dev/null || true
trap - EXIT

# Fuzz-seed smoke: replay every committed seed corpus through its fuzz
# target (no fuzzing engine, just the corpus) so a decoder regression
# against a known-tricky input fails the gate deterministically.
go test -run='^Fuzz' -count=1 ./internal/server/wire

# Coverage floors on the serving stack and the scan kernels: these
# packages were hardened test-first; don't let coverage rot. The scan
# kernels (knn) hold a higher bar than the rest.
for spec in ./internal/server:80 ./internal/cluster:80 ./internal/obs:80 \
            ./internal/knn:90 ./internal/graph:80 ./internal/mutate:80 \
            ./internal/replica:80 ./internal/pq:85 ./internal/tier:80; do
    pkg=${spec%:*}
    floor=${spec#*:}
    pct=$(go test -count=1 -cover "$pkg" | awk '/coverage:/ {gsub(/%/,"",$5); print $5}')
    if [ -z "$pct" ]; then
        echo "ci.sh: no coverage reported for $pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "ci.sh: coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage $pkg: ${pct}% (floor ${floor}%)"
done

echo "ci.sh: all green"
