package knn

// Vault-parallel intra-query execution. The SSAM module partitions its
// dataset across the HMC's 32 vaults and scans them concurrently, with
// a global top-k reduction on the host (PAPER §IV, Fig. 4). The host
// engines reproduce that topology inside one region: the database is
// split into up to Vaults contiguous slices, one goroutine per slice
// runs the scan kernel into a vault-local topk.Selector, and the
// vault-local lists are reduced with topk.MergeSorted.
//
// The result is bit-for-bit identical to a serial scan — ids, order,
// and distances — because both sides follow one total order (ascending
// distance, ties by ascending id): the Selector admits and evicts
// under it, and MergeSorted reduces under it, so any candidate in the
// global top-k is necessarily in its vault's local top-k and survives
// the merge at the same rank. Vault-local selectors deliberately do
// NOT share a global distance bound: sharing one would prune more
// candidates but make PQKept accounting (and the admission sequence)
// depend on goroutine scheduling, losing deterministic stats.

import (
	"runtime"
	"sync"

	"ssam/internal/obs"
	"ssam/internal/topk"
)

// MaxVaults caps intra-query parallelism at the paper's per-module
// vault count: one scan unit per HMC vault, 32 per module.
const MaxVaults = 32

// DefaultSerialThreshold is the dataset size below which the engines
// scan serially even when vault parallelism is configured. Measured on
// the synthetic GloVe/GIST shapes: spawning and joining a vault worker
// costs a few microseconds, which a scan amortizes only once each
// vault has on the order of a hundred rows of distance math; below
// ~2k rows the serial scan wins at every vault count.
const DefaultSerialThreshold = 2048

// DefaultVaults returns the default intra-query vault count:
// min(MaxVaults, GOMAXPROCS). More vaults than cores only adds
// scheduling overhead on the host, and the paper's module tops out at
// 32 vaults.
func DefaultVaults() int {
	if p := runtime.GOMAXPROCS(0); p < MaxVaults {
		return p
	}
	return MaxVaults
}

// ResolveVaults normalizes a configured vault count the way every
// engine does: values <= 0 select DefaultVaults, values above MaxVaults
// clamp to it. Exported so out-of-core stores can be partitioned with
// exactly the chunking the in-RAM scan would use.
func ResolveVaults(v int) int {
	if v <= 0 {
		return DefaultVaults()
	}
	if v > MaxVaults {
		return MaxVaults
	}
	return v
}

// scanVaults partitions rows [0, n) into vaults contiguous slices, runs
// scan on each from its own goroutine, and merges the vault-local
// top-k lists under the total order. Each slice is recorded as a
// "vault" child span of sp (nil-safe) tagged with its index and row
// count, so a sampled trace shows per-vault skew. The returned Stats
// sum the per-vault accounting; because every row is scanned by
// exactly one vault, DistEvals, Dims and PQInserts are identical to a
// serial scan's (PQKept may exceed it — vault-local selectors bound
// against fewer competitors).
func scanVaults(n, vaults, k int, sp *obs.Span, scan func(lo, hi int) ([]topk.Result, Stats)) ([]topk.Result, Stats) {
	type part struct {
		res   []topk.Result
		stats Stats
	}
	chunk := (n + vaults - 1) / vaults
	parts := make([]part, vaults)
	active := 0
	var wg sync.WaitGroup
	for v := 0; v < vaults; v++ {
		lo := v * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		active++
		// The span starts before the goroutine launches so its duration
		// covers scheduling delay — exactly the skew a trace should show.
		vsp := sp.Start("vault",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "rows", Value: hi - lo})
		wg.Add(1)
		go func(v, lo, hi int, vsp *obs.Span) {
			defer wg.Done()
			parts[v].res, parts[v].stats = scan(lo, hi)
			vsp.End()
		}(v, lo, hi, vsp)
	}
	wg.Wait()
	var st Stats
	lists := make([][]topk.Result, 0, active)
	for _, p := range parts[:active] {
		lists = append(lists, p.res)
		st.Add(p.stats)
	}
	return topk.MergeSorted(k, lists...), st
}
