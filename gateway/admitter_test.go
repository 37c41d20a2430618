package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"kizzle"
	"kizzle/internal/contentcache"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

// TestVetBytesMatchesVet pins the zero-copy entry points against the
// string path, for byte-capable scanners and for plain scanners on the
// copying fallback.
func TestVetBytesMatchesVet(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 10
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, s := range stream.Day(day) {
		docs = append(docs, s.Content)
	}
	docs = append(docs, "", "var benign = 1;")

	for _, scanner := range []Scanner{m, plainScanner{m}} {
		ref := NewVetter(scanner)
		v := NewVetter(scanner)
		byteDocs := make([][]byte, len(docs))
		for i, doc := range docs {
			byteDocs[i] = []byte(doc)
			if got, want := v.VetBytes(byteDocs[i]), ref.Vet(doc); got != want {
				t.Fatalf("doc %d: VetBytes %+v vs Vet %+v", i, got, want)
			}
		}
		batch := NewVetter(scanner).VetAllBytes(byteDocs)
		for i, doc := range docs {
			if want := NewVetter(scanner).Vet(doc); batch[i] != want {
				t.Fatalf("doc %d: VetAllBytes %+v vs Vet %+v", i, batch[i], want)
			}
		}
	}
}

// TestAdmitterMatchesDirect is the batched≡per-document differential:
// concurrent admissions through the batcher must produce exactly the
// decisions direct vetting produces, document for document.
func TestAdmitterMatchesDirect(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, s := range stream.Day(day) {
		docs = append(docs, []byte(s.Content))
	}

	direct := NewVetter(m)
	want := make([]Decision, len(docs))
	for i, doc := range docs {
		want[i] = direct.VetBytes(doc)
	}

	v := NewVetter(m)
	a := NewAdmitter(v, 8, 0)
	defer a.Close()
	got := make([]Decision, len(docs))
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a.VetBytes(docs[i])
		}(i)
	}
	wg.Wait()
	for i := range docs {
		if got[i] != want[i] {
			t.Fatalf("doc %d: batched %+v vs direct %+v", i, got[i], want[i])
		}
	}
}

// gatedScanner holds its first Scan until gate closes, signalling entered
// once it is held, so a test can pin a batch in flight and queue the next.
type gatedScanner struct {
	Scanner
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedScanner) Scan(doc string) []kizzle.Match {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.Scanner.Scan(doc)
}

// blankScanner is a signature set that matches nothing.
type blankScanner struct{}

func (blankScanner) Scan(string) []kizzle.Match { return nil }

// TestAdmitterNoLinger: a lone request on an idle admitter is decided at
// once, whatever the (ignored) window argument says.
func TestAdmitterNoLinger(t *testing.T) {
	day := synth.Date(time.August, 5)
	a := NewAdmitter(NewVetter(buildMatcher(t, day)), 32, time.Hour)
	defer a.Close()
	done := make(chan Decision, 1)
	go func() { done <- a.VetBytes([]byte(kitDoc(t, day))) }()
	select {
	case d := <-done:
		if !d.Blocked || d.Family != "Angler" {
			t.Errorf("lone admission = %+v", d)
		}
	case <-time.After(time.Second):
		t.Fatal("lone admission waited for company")
	}
}

// TestAdmitterCoalescesDuplicates: identical requests that queue while a
// batch is in flight form the next batch and are scanned once, and every
// request still gets the right decision.
func TestAdmitterCoalescesDuplicates(t *testing.T) {
	day := synth.Date(time.August, 5)
	g := &gatedScanner{Scanner: buildMatcher(t, day), entered: make(chan struct{}), gate: make(chan struct{})}
	v := NewVetter(g)
	const n = 32
	a := NewAdmitter(v, n, 0)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	admit := func(wg *sync.WaitGroup) {
		defer wg.Done()
		if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
			t.Errorf("coalesced decision = %+v", d)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go admit(&wg) // the first batch, held in the scanner
	<-g.entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go admit(&wg)
	}
	for deadline := time.Now().Add(10 * time.Second); len(a.reqs) < n-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(g.gate)
			t.Fatalf("only %d of %d requests queued", len(a.reqs), n-1)
		}
	}
	close(g.gate)
	wg.Wait()

	scanned, blocked := v.Stats()
	if scanned != 2 || blocked != 2 {
		t.Errorf("scanned %d, blocked %d; want 2 and 2 (the held batch, then one scan for %d queued duplicates)", scanned, blocked, n-1)
	}
	mtr := a.Metrics()
	if mtr["requests"].(int64) != n || mtr["batches"].(int64) != 2 {
		t.Errorf("requests %v in %v batches, want %d in 2", mtr["requests"], mtr["batches"], n)
	}
	if mtr["coalesced"].(int64) != n-2 {
		t.Errorf("coalesced metric = %v, want %d", mtr["coalesced"], n-2)
	}
}

// TestAdmitterDigestCollisionSafety: documents that merely share a digest
// bucket candidate must be verified byte-for-byte, so distinct documents
// always get their own scans and decisions.
func TestAdmitterDistinctDocsDistinctDecisions(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 16, 0)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	benign := []byte(`var benign = 1;`)
	var wg sync.WaitGroup
	results := make([]Decision, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = a.VetBytes(kit)
			} else {
				results[i] = a.VetBytes(benign)
			}
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if i%2 == 0 && (!d.Blocked || d.Family != "Angler") {
			t.Errorf("kit request %d: %+v", i, d)
		}
		if i%2 == 1 && d.Blocked {
			t.Errorf("benign request %d blocked", i)
		}
	}
}

// TestAdmitterCloseFallback: after Close, admissions still get correct
// decisions via the direct path, and Close drains queued requests.
func TestAdmitterCloseFallback(t *testing.T) {
	day := synth.Date(time.August, 5)
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 32, 0)
	kit := []byte(kitDoc(t, day))
	if d := a.VetBytes(kit); !d.Blocked {
		t.Fatal("pre-close admission missed kit")
	}
	a.Close()
	if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
		t.Errorf("post-close admission = %+v", d)
	}
	if a.VetBytes([]byte("var benign = 1;")).Blocked {
		t.Error("post-close admission blocked benign")
	}
}

// TestVetterUpdateDuringVetAllBytes swaps signature sets while batched
// byte scans are in flight; run under -race this pins the hot-swap
// locking. Every decision must come from one coherent signature set.
func TestVetterUpdateDuringVetAllBytes(t *testing.T) {
	day := synth.Date(time.August, 5)
	m := buildMatcher(t, day)
	v := NewVetter(m)
	kit := []byte(kitDoc(t, day))
	docs := [][]byte{kit, []byte("var benign = 1;"), kit}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				v.Update(m)
				v.SetVersion(v.Version() + 1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		out := v.VetAllBytes(docs)
		if !out[0].Blocked || out[1].Blocked || !out[2].Blocked {
			t.Fatalf("iteration %d: decisions %+v", i, out)
		}
	}
	close(stop)
	wg.Wait()
}

// TestProxyChunkedOversizedNotTruncated: a chunked (unknown-length)
// response that exceeds MaxScanBytes must pass through complete — the
// buffered prefix followed by the unread tail — not truncated at the
// scan bound.
func TestProxyChunkedOversizedNotTruncated(t *testing.T) {
	day := synth.Date(time.August, 5)
	big := bytes.Repeat([]byte("chunked-oversized-body."), 200) // ~4.6 KiB
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		// Flush after a prefix so the response goes out chunked with
		// ContentLength unknown to the proxy.
		w.Write(big[:100])
		w.(http.Flusher).Flush()
		w.Write(big[100:])
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProxy(target, NewVetter(buildMatcher(t, day)))
	p.MaxScanBytes = 1024
	front := httptest.NewServer(p)
	defer front.Close()

	resp, err := http.Get(front.URL + "/big.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, big) {
		t.Errorf("chunked oversized body corrupted: got %d bytes, want %d", len(body), len(big))
	}
}

// TestProxyChunkedUnderLimitScanned: chunked delivery must not bypass
// scanning when the body fits the scan bound.
func TestProxyChunkedUnderLimitScanned(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, kit[:40])
		w.(http.Flusher).Flush()
		io.WriteString(w, kit[40:])
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProxy(target, NewVetter(buildMatcher(t, day))))
	defer front.Close()

	resp, err := http.Get(front.URL + "/landing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("chunked kit page: status %d, want 403", resp.StatusCode)
	}
}

// TestProxyWithAdmitter drives the proxy end to end through the
// admission batcher: kit blocked, benign served intact, duplicate
// concurrent fetches coalesced without changing any response.
func TestProxyWithAdmitter(t *testing.T) {
	day := synth.Date(time.August, 5)
	kit := kitDoc(t, day)
	benign := `<html><body><script>var x = document.title;</script></body></html>`
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		if r.URL.Path == "/landing" {
			io.WriteString(w, kit)
			return
		}
		io.WriteString(w, benign)
	}))
	defer upstream.Close()
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVetter(buildMatcher(t, day))
	a := NewAdmitter(v, 32, 0)
	defer a.Close()
	p := NewProxy(target, v)
	p.UseAdmitter(a)
	front := httptest.NewServer(p)
	defer front.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, wantCode := "/landing", http.StatusForbidden
			if i%2 == 0 {
				path, wantCode = "/index.html", http.StatusOK
			}
			resp, err := http.Get(front.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != wantCode {
				t.Errorf("%s: status %d, want %d", path, resp.StatusCode, wantCode)
			}
			if wantCode == http.StatusOK && string(body) != benign {
				t.Errorf("%s: body corrupted through pooled buffers", path)
			}
		}(i)
	}
	wg.Wait()
	if mtr := a.Metrics(); mtr["requests"].(int64) != 16 {
		t.Errorf("admitter saw %v requests, want 16", mtr["requests"])
	}
}

// TestAdmitterSharedStore pins fleet cache semantics: two replica
// admitters sharing one verdict cache produce decisions identical to
// direct vetting, the second replica hits verdicts the first scanned,
// and a version bump invalidates everything.
func TestAdmitterSharedStore(t *testing.T) {
	day := synth.Date(time.August, 5)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, s := range stream.Day(day) {
		docs = append(docs, []byte(s.Content))
	}

	direct := NewVetter(buildMatcher(t, day))
	want := make([]Decision, len(docs))
	for i, doc := range docs {
		want[i] = direct.VetBytes(doc)
	}

	cache := verdictcache.New(0)
	replicas := make([]*Admitter, 2)
	vetters := make([]*Vetter, 2)
	for i := range replicas {
		vetters[i] = NewVetter(buildMatcher(t, day))
		vetters[i].SetVersion(1)
		replicas[i] = NewAdmitter(vetters[i], 8, 0)
		replicas[i].UseSharedStore(cache)
		defer replicas[i].Close()
	}

	// Replica 0 scans everything, populating the shared cache.
	for i, doc := range docs {
		if got := replicas[0].VetBytes(doc); got != want[i] {
			t.Fatalf("replica 0 doc %d: %+v, want %+v", i, got, want[i])
		}
	}
	// Replica 1 must answer identically — from the shared cache, without
	// scanning a single document.
	scannedBefore, _ := vetters[1].Stats()
	for i, doc := range docs {
		if got := replicas[1].VetBytes(doc); got != want[i] {
			t.Fatalf("replica 1 doc %d: %+v, want %+v", i, got, want[i])
		}
	}
	scannedAfter, _ := vetters[1].Stats()
	if scannedAfter != scannedBefore {
		t.Errorf("replica 1 scanned %d docs, want 0 (all shared hits)", scannedAfter-scannedBefore)
	}
	if hits := replicas[1].Metrics()["shared_hits"].(int64); hits != int64(len(docs)) {
		t.Errorf("shared_hits = %d, want %d", hits, len(docs))
	}

	// A version bump wipes the cache: replica 1 now scans again.
	vetters[1].SetVersion(2)
	if got := replicas[1].VetBytes(docs[0]); got != want[0] {
		t.Fatalf("post-bump decision %+v, want %+v", got, want[0])
	}
	scannedPostBump, _ := vetters[1].Stats()
	if scannedPostBump == scannedAfter {
		t.Error("version bump did not force a rescan")
	}
	if cache.Version() != 2 {
		t.Errorf("cache version %d, want 2", cache.Version())
	}
}

// TestAdmitterSharedStoreChecksumGuard pins the collision defense: the
// shared cache's 64-bit XXH64 key only nominates an entry, and an entry
// whose SHA-256 content sum does not match the document in hand — an
// attacker-constructed digest collision, or a corrupt store — must be
// ignored: the document is scanned locally and the poisoned entry
// overwritten with the genuine verdict.
func TestAdmitterSharedStoreChecksumGuard(t *testing.T) {
	day := synth.Date(time.August, 5)
	cache := verdictcache.New(0)
	v := NewVetter(buildMatcher(t, day))
	v.SetVersion(1)
	a := NewAdmitter(v, 8, 0)
	a.UseSharedStore(cache)
	defer a.Close()

	kit := []byte(kitDoc(t, day))
	kitKey := contentcache.Digest(string(kit))
	// Plant a clean verdict under the kit's cache key carrying the sum of
	// different content — what a digest-colliding benign twin, scanned
	// and cached clean, would leave behind for the kit page to ride on.
	cache.Put(1, kitKey, verdictcache.Verdict{
		Blocked: false,
		Sum:     verdictcache.ContentSum([]byte("benign colliding twin")),
	})
	if d := a.VetBytes(kit); !d.Blocked || d.Family != "Angler" {
		t.Fatalf("forged clean verdict bypassed the scanner: %+v", d)
	}
	if rejects := a.Metrics()["shared_rejects"].(int64); rejects != 1 {
		t.Errorf("shared_rejects = %d, want 1", rejects)
	}
	if hits := a.Metrics()["shared_hits"].(int64); hits != 0 {
		t.Errorf("shared_hits = %d, want 0", hits)
	}
	// The rescan published the genuine verdict over the forged entry.
	if got, ok := cache.Get(1, kitKey); !ok || !got.Blocked || got.Sum != verdictcache.ContentSum(kit) {
		t.Errorf("cache entry after rescan: %+v ok=%v", got, ok)
	}
}

// TestAdmitterSharedStoreUnversionedVetter pins the safety gate: a
// vetter that never recorded a matcher version must bypass the shared
// store entirely (an unpinned verdict could outlive a signature update).
func TestAdmitterSharedStoreUnversionedVetter(t *testing.T) {
	day := synth.Date(time.August, 5)
	cache := verdictcache.New(0)
	v := NewVetter(buildMatcher(t, day)) // version never set
	a := NewAdmitter(v, 8, 0)
	a.UseSharedStore(cache)
	defer a.Close()
	a.VetBytes([]byte(kitDoc(t, day)))
	if cache.Len() != 0 {
		t.Errorf("unversioned vetter published %d verdicts to the fleet", cache.Len())
	}
	if puts := a.Metrics()["shared_puts"].(int64); puts != 0 {
		t.Errorf("shared_puts = %d, want 0", puts)
	}
}

// TestAdmitterSharedStorePinsScanningSet pins shared verdicts to the set
// that computed them: between Update and SetVersion the new set is
// unpinned, so a batch scanned with it must not file its verdicts under
// the old set's version, where replicas still on the old set would serve
// them.
func TestAdmitterSharedStorePinsScanningSet(t *testing.T) {
	day := synth.Date(time.August, 5)
	cache := verdictcache.New(0)
	v := NewVetter(buildMatcher(t, day))
	v.SetVersion(1)
	a := NewAdmitter(v, 8, 0)
	a.UseSharedStore(cache)
	defer a.Close()

	// Set B blocks nothing, so it decides the kit page unlike set A.
	v.Update(blankScanner{})
	kit := []byte(kitDoc(t, day))
	if d := a.VetBytes(kit); d.Blocked {
		t.Fatalf("set B decision = %+v, want admitted", d)
	}
	if got, ok := cache.Get(1, contentcache.Digest(string(kit))); ok {
		t.Errorf("set B verdict %+v filed under set A's version 1", got)
	}
	if v.Version() != 1 {
		t.Errorf("Version() = %d, want 1 until SetVersion", v.Version())
	}

	// Once pinned, B's verdicts are shared under B's version.
	v.SetVersion(2)
	a.VetBytes(kit)
	if got, ok := cache.Get(2, contentcache.Digest(string(kit))); !ok || got.Blocked {
		t.Errorf("pinned set B verdict: %+v ok=%v", got, ok)
	}
}
