package gateway

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/servemetrics"
	"kizzle/internal/verdictcache"
	"kizzle/internal/zerocopy"
)

// Admitter coalesces concurrent admission checks into micro-batches.
//
// Batches form from load, not from a timer: a batch is the first queued
// request plus whatever is already queued behind it (up to maxBatch),
// dispatched at once. While one batch is being decided new arrivals
// queue, and the next batch takes them all. An idle admitter therefore
// scans a lone request immediately, and a loaded one still gets full
// batches. Two effects pay for batching. First, a batch rides one
// VetAllBytes call, so a burst of concurrent responses costs one
// worker-pool dispatch instead of one lock/dispatch per response.
// Second — the dominant effect under real traffic — identical in-flight
// documents are detected inside a batch and scanned once: provider
// traffic is hot-key skewed (many users fetch the same landing page at
// the same moment), so a loaded batch is mostly duplicates and the scan
// work per admitted response collapses. Decisions are
// identical to per-document vetting: duplicates are verified byte-for-
// byte (a digest alone only nominates candidates), and every request
// still receives its own Decision.
//
// Buffer ownership follows VetBytes: the caller's document is only read
// until its VetBytes call returns, so pooled proxy buffers stay safe.
type Admitter struct {
	v        *Vetter
	maxBatch int
	// shared, when set by UseSharedStore, extends duplicate detection
	// across the fleet: verdicts for this matcher version computed by any
	// replica are consulted before a local scan.
	shared verdictcache.Store

	reqs chan admitReq
	done chan struct{}
	wg   sync.WaitGroup
	// closeMu fences enqueues against Close: a request holds the read
	// side across its send, so once Close holds the write side no request
	// can slip into a queue nobody serves.
	closeMu sync.RWMutex
	closed  bool

	requests      atomic.Int64
	batches       atomic.Int64
	coalesced     atomic.Int64
	sharedHits    atomic.Int64
	sharedPuts    atomic.Int64
	sharedRejects atomic.Int64
	lat           servemetrics.Hist
}

type admitReq struct {
	doc  []byte
	resp chan Decision
}

// NewAdmitter starts an admitter in front of v. maxBatch bounds the
// documents per micro-batch (zero or negative: 32). Close releases the
// admitter's goroutine.
//
// Deprecated: maxWait is ignored — batches never wait for company. The
// parameter goes away with the benchmark that still passes it.
func NewAdmitter(v *Vetter, maxBatch int, maxWait time.Duration) *Admitter {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	a := &Admitter{
		v:        v,
		maxBatch: maxBatch,
		reqs:     make(chan admitReq, maxBatch),
		done:     make(chan struct{}),
	}
	a.wg.Add(1)
	go a.loop()
	return a
}

// VetBytes submits one document for admission and blocks for its
// decision. After Close it degrades to a direct (unbatched) vet, so
// in-flight and late callers always get a decision.
func (a *Admitter) VetBytes(doc []byte) Decision {
	a.requests.Add(1)
	start := time.Now()
	d, ok := a.submit(doc)
	if !ok {
		d = a.v.VetBytes(doc)
	}
	a.lat.Observe(time.Since(start))
	return d
}

// submit enqueues one document and waits for its decision; ok reports
// false once the admitter is closed. Holding closeMu across the send
// guarantees the collection loop is still alive to serve it — Close
// cannot take the write side, and so cannot stop the loop, while any
// enqueue is in flight.
func (a *Admitter) submit(doc []byte) (Decision, bool) {
	a.closeMu.RLock()
	if a.closed {
		a.closeMu.RUnlock()
		return Decision{}, false
	}
	r := admitReq{doc: doc, resp: make(chan Decision, 1)}
	a.reqs <- r
	a.closeMu.RUnlock()
	return <-r.resp, true
}

// Close stops the collection loop, waits for queued documents to be
// decided, and makes future VetBytes calls vet directly. Must be called
// at most once; the admitter keeps serving (unbatched) after.
func (a *Admitter) Close() {
	a.closeMu.Lock()
	a.closed = true
	a.closeMu.Unlock()
	close(a.done)
	a.wg.Wait()
}

// loop collects batches of requests and dispatches each in turn.
func (a *Admitter) loop() {
	defer a.wg.Done()
	for {
		select {
		case first := <-a.reqs:
			a.dispatch(a.collect(first))
		case <-a.done:
			// Drain whatever made it into the queue before Close; their
			// senders are parked on resp channels.
			for {
				select {
				case r := <-a.reqs:
					a.dispatch(a.collect(r))
				default:
					return
				}
			}
		}
	}
}

// collect gathers one micro-batch: the first request plus whatever is
// already queued, capped at maxBatch. It never waits for more.
func (a *Admitter) collect(first admitReq) []admitReq {
	batch := make([]admitReq, 1, a.maxBatch)
	batch[0] = first
	for len(batch) < a.maxBatch {
		select {
		case r := <-a.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// UseSharedStore plugs a fleet-wide verdict store into the admitter:
// before a batch's unique documents are scanned locally, each is looked
// up by (matcher version, content digest), and verdicts the local scan
// produces are published back for the other replicas — under the same
// version pin, so a signature update landing mid-batch can never leak a
// stale verdict into the fleet. Call before serving; decisions stay
// byte-identical to the unshared path because an entry only ever answers
// for the exact matcher version that computed it, and only when its
// SHA-256 content sum matches the document in hand — the 64-bit cache
// key alone nominates candidates exactly as in-batch coalescing does,
// where bytes.Equal plays the same role.
func (a *Admitter) UseSharedStore(s verdictcache.Store) { a.shared = s }

// dispatch scans a batch's unique documents once and fans decisions back
// out to every request.
func (a *Admitter) dispatch(batch []admitReq) {
	a.batches.Add(1)
	docs := make([][]byte, 0, len(batch))
	digests := make([]uint64, 0, len(batch))
	slot := make([]int, len(batch))
	byDigest := make(map[uint64][]int, len(batch))
	for i, r := range batch {
		d := contentcache.Digest(zerocopy.String(r.doc))
		dup := -1
		for _, j := range byDigest[d] {
			if bytes.Equal(docs[j], r.doc) {
				dup = j
				break
			}
		}
		if dup >= 0 {
			slot[i] = dup
			a.coalesced.Add(1)
			continue
		}
		docs = append(docs, r.doc)
		digests = append(digests, d)
		byDigest[d] = append(byDigest[d], len(docs)-1)
		slot[i] = len(docs) - 1
	}
	decisions := a.decideAll(docs, digests)
	for i, r := range batch {
		r.resp <- decisions[slot[i]]
	}
}

// decideAll resolves a batch's unique documents to decisions: shared
// verdict store first (when configured and the deployed set is pinned to
// a version), local scan for the misses, then publication of the freshly
// scanned verdicts under that same pin. One deployment snapshot serves
// for the lookups, the scan and the puts, so a swap landing mid-batch
// cannot file one set's verdicts under another set's version. A shared
// entry answers only when its SHA-256 content sum matches the document
// in hand: the XXH64 cache key is attacker-collidable, so serving on
// bare key equality would let a crafted benign/malicious digest pair
// turn a cached clean verdict into a fleet-wide scanner bypass.
func (a *Admitter) decideAll(docs [][]byte, digests []uint64) []Decision {
	shared, dep := a.shared, a.v.live.Load()
	ver := dep.pin
	if shared == nil || ver <= 0 {
		// No store, or no recorded version for this set to pin entries
		// to — an unpinned verdict could survive a signature update.
		return a.v.vetAll(dep.scanner, docs)
	}
	out := make([]Decision, len(docs))
	sums := make([]string, len(docs))
	for i := range docs {
		sums[i] = verdictcache.ContentSum(docs[i])
	}
	toScan := docs[:0:0]
	idx := make([]int, 0, len(docs))
	for i := range docs {
		if v, ok := shared.Get(ver, digests[i]); ok {
			if v.Sum == sums[i] {
				out[i] = Decision{Blocked: v.Blocked, Family: v.Family}
				a.sharedHits.Add(1)
				continue
			}
			// The key nominated an entry computed for different content —
			// a digest collision (accidental or adversarial) or a corrupt
			// store. Either way the verdict does not cover these bytes.
			a.sharedRejects.Add(1)
		}
		toScan = append(toScan, docs[i])
		idx = append(idx, i)
	}
	if len(toScan) == 0 {
		return out
	}
	for j, d := range a.v.vetAll(dep.scanner, toScan) {
		shared.Put(ver, digests[idx[j]], verdictcache.Verdict{Blocked: d.Blocked, Family: d.Family, Sum: sums[idx[j]]})
		a.sharedPuts.Add(1)
		out[idx[j]] = d
	}
	return out
}

// Metrics returns the admitter's /metrics fields: request, batch, and
// coalesced-duplicate counts plus the end-to-end admission latency
// (queueing included) summary.
func (a *Admitter) Metrics() map[string]any {
	return map[string]any{
		"requests":          a.requests.Load(),
		"batches":           a.batches.Load(),
		"coalesced":         a.coalesced.Load(),
		"shared_hits":       a.sharedHits.Load(),
		"shared_puts":       a.sharedPuts.Load(),
		"shared_rejects":    a.sharedRejects.Load(),
		"admission_latency": a.lat.Summary(),
	}
}
