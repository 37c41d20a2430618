package gateway

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

// benchCorpus builds the serving traffic: every document of one synthetic
// day (kit landings and benign pages alike), fetched under a zipf-skewed
// popularity law the way a provider's edge sees it — a few hot landing
// pages dominate while a long tail trickles.
func benchCorpus(b *testing.B, day int) [][]byte {
	b.Helper()
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 60
	stream, err := synth.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var docs [][]byte
	for _, s := range stream.Day(day) {
		docs = append(docs, []byte(s.Content))
	}
	if len(docs) < 2 {
		b.Fatal("corpus too small")
	}
	return docs
}

// swapMode selects what the background signature-update loop does while
// the benchmark serves.
type swapMode int

const (
	noSwap   swapMode = iota
	coldSwap          // full recompile per update, the pre-delta deploy path
	warmSwap          // incremental per-family recompile, the delta deploy path
)

// benchServe drives 32 concurrent clients through the admission path for
// b.N documents and reports exact p50/p99 per-request latencies as custom
// metrics (benchgate gates every p50-/p99- metric alongside ns/op). The
// swap modes measure serving behavior while signature updates land
// mid-flight: coldSwap recompiles the full set per update, warmSwap only
// the changed family — the tail-latency difference is the case for the
// delta distribution channel.
func benchServe(b *testing.B, batched bool, swap swapMode) {
	const workers = 32
	day := synth.Date(time.August, 5)
	sigsA := trainSignatures(b, day)
	sigsB := trainSignatures(b, day+1)
	m, err := kizzle.NewMatcher(sigsA)
	if err != nil {
		b.Fatal(err)
	}
	docs := benchCorpus(b, day)
	v := NewVetter(m)
	var admit *Admitter
	if batched {
		admit = NewAdmitter(v, workers, 0)
		defer admit.Close()
	}

	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	if swap != noSwap {
		// Alternate between two real signature sets every few milliseconds
		// — far above any production update rate, to make swap cost show
		// up within a benchmark's runtime.
		var cache kizzle.MatcherCache
		if _, _, err := cache.Build(sigsA); err != nil {
			b.Fatal(err)
		}
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			ticker := time.NewTicker(5 * time.Millisecond)
			defer ticker.Stop()
			flip := false
			for {
				select {
				case <-stopSwap:
					return
				case <-ticker.C:
				}
				sigs := sigsA
				if flip {
					sigs = sigsB
				}
				flip = !flip
				var next *kizzle.Matcher
				var err error
				if swap == warmSwap {
					next, _, err = cache.Build(sigs)
				} else {
					next, err = kizzle.NewMatcher(sigs)
				}
				if err != nil {
					b.Error(err)
					return
				}
				v.Update(next)
			}
		}()
	}

	lats := make([][]time.Duration, workers)
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(docs)-1))
			mine := make([]time.Duration, 0, b.N/workers+1)
			for next.Add(1) <= int64(b.N) {
				doc := docs[zipf.Uint64()]
				start := time.Now()
				if batched {
					admit.VetBytes(doc)
				} else {
					v.VetBytes(doc)
				}
				mine = append(mine, time.Since(start))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	close(stopSwap)
	swapWG.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		i := int(q * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return float64(all[i]) / 1e3
	}
	b.ReportMetric(quantile(0.50), "p50-us")
	b.ReportMetric(quantile(0.99), "p99-us")
	if batched {
		mtr := admit.Metrics()
		if reqs := mtr["requests"].(int64); reqs > 0 {
			b.ReportMetric(float64(mtr["coalesced"].(int64))/float64(reqs), "coalesced/req")
		}
	}
}

// BenchmarkServe is the serving-tier SLO benchmark: 32 concurrent
// clients, zipf-skewed traffic, exact per-request p50/p99. The batched
// variants must sustain at least twice the direct variant's throughput —
// in-flight duplicate coalescing scans a hot document once per admission
// window instead of once per request.
func BenchmarkServe(b *testing.B) {
	b.Run("direct", func(b *testing.B) { benchServe(b, false, noSwap) })
	b.Run("batched", func(b *testing.B) { benchServe(b, true, noSwap) })
	b.Run("batched-coldswap", func(b *testing.B) { benchServe(b, true, coldSwap) })
	b.Run("batched-warmswap", func(b *testing.B) { benchServe(b, true, warmSwap) })
}

// benchServeFleet drives zipf traffic through N gateway replicas behind
// a round-robin front, optionally sharing one in-process verdict cache,
// and reports exact fleet-wide p50/p99. The shared=false/true pair is
// the case for the fleet cache: with it, a hot document is scanned once
// fleet-wide per admission epoch instead of once per replica.
func benchServeFleet(b *testing.B, replicas int, shared bool) {
	const workers = 32
	day := synth.Date(time.August, 5)
	sigs := trainSignatures(b, day)
	docs := benchCorpus(b, day)

	var cache *verdictcache.Cache
	if shared {
		cache = verdictcache.New(0)
	}
	vetters := make([]*Vetter, replicas)
	admits := make([]*Admitter, replicas)
	for i := range admits {
		m, err := kizzle.NewMatcher(sigs)
		if err != nil {
			b.Fatal(err)
		}
		vetters[i] = NewVetter(m)
		vetters[i].SetVersion(1)
		admits[i] = NewAdmitter(vetters[i], workers, 0)
		if shared {
			admits[i].UseSharedStore(cache)
		}
		defer admits[i].Close()
	}

	lats := make([][]time.Duration, workers)
	var next atomic.Int64
	var rr atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(docs)-1))
			mine := make([]time.Duration, 0, b.N/workers+1)
			for next.Add(1) <= int64(b.N) {
				doc := docs[zipf.Uint64()]
				admit := admits[int(rr.Add(1))%len(admits)]
				start := time.Now()
				admit.VetBytes(doc)
				mine = append(mine, time.Since(start))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		i := int(q * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return float64(all[i]) / 1e3
	}
	b.ReportMetric(quantile(0.50), "p50-us")
	b.ReportMetric(quantile(0.99), "p99-us")
	if shared {
		var hits, reqs int64
		for _, a := range admits {
			m := a.Metrics()
			hits += m["shared_hits"].(int64)
			reqs += m["requests"].(int64)
		}
		if reqs > 0 {
			b.ReportMetric(float64(hits)/float64(reqs), "shared-hits/req")
		}
	}
}

// BenchmarkServeFleet is the multi-replica SLO benchmark: 3 gateway
// replicas behind a round-robin front under zipf traffic, with and
// without the fleet-wide shared verdict cache.
func BenchmarkServeFleet(b *testing.B) {
	b.Run("replicas=3", func(b *testing.B) { benchServeFleet(b, 3, false) })
	b.Run("replicas=3-shared", func(b *testing.B) { benchServeFleet(b, 3, true) })
}
