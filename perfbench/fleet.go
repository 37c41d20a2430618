package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/verdictcache"
	"kizzle/sigdb"
)

const (
	// numReplicas is the serving fleet size.
	numReplicas = 2
	// armTimeout bounds publish-to-armed; a publish not armed on every
	// replica by then is a failed operation.
	armTimeout = 5 * time.Second
	// batchDocs and batchWait are the admitter's defaults.
	batchDocs = 32
	batchWait = 500 * time.Microsecond
)

var errNotArmed = errors.New("publish not armed on every replica in time")

// handlerTransport serves HTTP requests from an in-process handler: the
// sigdb clients talk to the store through the real handlers and wire
// format without sockets, which would compete for the two cores.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return rec.Result(), nil
}

// replica is one gateway replica: a sigdb watch client feeding a Vetter
// fronted by an Admitter that shares the fleet's verdict cache.
type replica struct {
	client  *sigdb.Client
	vetter  *gateway.Vetter
	admit   *gateway.Admitter
	armed   atomic.Int64 // version the vetter serves
	armedAt atomic.Int64 // unix ns when it started serving it
	scan    scanStats
	// scanBase is scan as the serving phases started.
	scanBase scanCounts
}

type scanCounts struct{ calls, docs, busyNs int64 }

// fleet is the in-process distribution and serving stack: one sigdb
// store, numReplicas replicas watching it, one shared verdict cache.
type fleet struct {
	store  *sigdb.Store
	shared *verdictcache.Cache
	reps   []*replica
	tr     *tracer
	armCh  chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.RWMutex
	// setOf maps a published version to the plan unit whose set it is;
	// publishedAt to when its Publish returned.
	setOf       map[int64]int
	publishedAt map[int64]time.Time

	// Traced-run observations.
	cacheStats storeStats
	fetch      fetchStats
	swapMu     sync.Mutex
	swaps      []time.Duration
	builds     kizzle.MatcherCache
}

// startFleet starts the store, the shared cache and the replicas; every
// error a replica's watch client reports is counted in clientErrs.
func startFleet(tr *tracer, clientErrs *atomic.Int64) *fleet {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{
		store:       sigdb.New(),
		shared:      verdictcache.New(0),
		tr:          tr,
		armCh:       make(chan struct{}, 1),
		cancel:      cancel,
		setOf:       make(map[int64]int),
		publishedAt: make(map[int64]time.Time),
	}
	mux := http.NewServeMux()
	mux.Handle("/signatures", f.store.Handler())
	mux.Handle("/signatures/watch", f.store.WatchHandler())
	var rt http.RoundTripper = handlerTransport{mux}
	var shared verdictcache.Store = f.shared
	if tr != nil {
		rt = &tracedTransport{inner: rt, tr: tr, published: f.publishTime, stats: &f.fetch}
		shared = &tracedStore{inner: f.shared, tr: tr, stats: &f.cacheStats}
	}
	for i := 0; i < numReplicas; i++ {
		r := &replica{
			client: &sigdb.Client{
				URL:        "http://sigdb.bench/signatures",
				HTTPClient: &http.Client{Transport: rt},
				JitterSeed: int64(i + 1),
			},
			vetter: gateway.NewVetter(nil),
		}
		r.admit = gateway.NewAdmitter(r.vetter, batchDocs, batchWait)
		r.admit.UseSharedStore(shared)
		f.reps = append(f.reps, r)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			r.client.Run(ctx, time.Second, func(snap sigdb.Snapshot) { f.apply(r, snap) }, func(error) { clientErrs.Add(1) })
		}()
	}
	return f
}

// apply is the Client.Run callback: deploy the freshly built matcher.
func (f *fleet) apply(r *replica, snap sigdb.Snapshot) {
	start := time.Now()
	m, _ := r.client.Matcher()
	var s gateway.Scanner = m
	if f.tr != nil {
		s = &tracedScanner{m: m, tr: f.tr, stats: &r.scan}
	}
	r.vetter.Update(s)
	r.vetter.SetVersion(snap.Version)
	end := time.Now()
	r.armed.Store(snap.Version)
	r.armedAt.Store(end.UnixNano())
	if f.tr != nil {
		f.tr.add("gateway.swap", start, end, -1, snap.Version)
		f.swapMu.Lock()
		f.swaps = append(f.swaps, end.Sub(start))
		f.swapMu.Unlock()
	}
	select {
	case f.armCh <- struct{}{}:
	default:
	}
}

func (f *fleet) publishTime(version int64) (time.Time, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	at, ok := f.publishedAt[version]
	return at, ok
}

// setFor reports which plan unit's set a version carries.
func (f *fleet) setFor(version int64) (int, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	u, ok := f.setOf[version]
	return u, ok
}

// publishResult is one publish: how long Store.Publish took and how
// long after it returned the last replica served the new version.
type publishResult struct {
	changed, loaded bool
	publish         time.Duration
	toArmed         time.Duration
	matcherBuild    time.Duration
}

// publish installs unit u's set and waits until every replica serves it.
// Only one goroutine publishes at a time.
func (f *fleet) publish(sigs []kizzle.Signature, u int) (publishResult, error) {
	var res publishResult
	f.mu.Lock()
	next := f.store.Version() + 1
	f.setOf[next] = u // registered first: replicas may serve it before Publish returns
	f.mu.Unlock()
	root := f.tr.newID()
	start := time.Now()
	version, changed, err := f.store.Publish(sigs, nil)
	returned := time.Now()
	res.publish = returned.Sub(start)
	if err != nil || !changed {
		f.mu.Lock()
		delete(f.setOf, next)
		f.mu.Unlock()
		if err != nil {
			return res, fmt.Errorf("publish: %w", err)
		}
		return res, nil
	}
	if version != next {
		return res, fmt.Errorf("publish: got version %d, expected %d", version, next)
	}
	res.changed = true
	f.mu.Lock()
	f.publishedAt[version] = returned
	f.mu.Unlock()
	f.tr.add("sigdb.publish", start, returned, root, version)

	timeout := time.NewTimer(armTimeout)
	defer timeout.Stop()
	for {
		var last int64
		all := true
		for _, r := range f.reps {
			if r.armed.Load() < version {
				all = false
				break
			}
			last = max(last, r.armedAt.Load())
		}
		if all {
			armed := time.Unix(0, last)
			res.toArmed = armed.Sub(returned)
			f.tr.record(root, "publish_to_armed", start, armed, -1, version)
			break
		}
		select {
		case <-f.armCh:
		case <-timeout.C:
			return res, errNotArmed
		}
	}
	if f.tr != nil {
		// Mirror the replicas' incremental matcher build on the same
		// sequence of sets to time kizzle.MatcherCache.Build alone.
		t0 := time.Now()
		if _, _, err := f.builds.Build(sigs); err != nil {
			return res, fmt.Errorf("matcher build: %w", err)
		}
		res.matcherBuild = time.Since(t0)
		f.tr.add("kizzle.matcher_build", t0, t0.Add(res.matcherBuild), root, version)
	}
	return res, nil
}

// serve admits one document through replica i%numReplicas and returns
// the decision with the versions the replica served before and after.
func (f *fleet) serve(i int64, doc []byte) (d gateway.Decision, lo, hi int64) {
	r := f.reps[i%int64(len(f.reps))]
	lo = r.vetter.Version()
	d = r.admit.VetBytes(doc)
	hi = r.vetter.Version()
	return d, lo, hi
}

// close stops the watch clients and the admitters and waits for them.
func (f *fleet) close() {
	f.cancel()
	f.wg.Wait()
	for _, r := range f.reps {
		r.admit.Close()
	}
}
