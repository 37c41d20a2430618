package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/internal/verdictcache"
)

// maxSpans bounds the spans kept in memory; later spans are counted but
// not stored (their self times are then missing from the summary).
const maxSpans = 1_000_000

// span is one timed call at a layer boundary. Parent is the causing
// span's ID (-1 for a root); Req ties the spans of one request or one
// published version together (-1 when there is none).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return -1
	}
	return t.nextID.Add(1)
}

// record stores a span under a previously reserved ID.
func (t *tracer) record(id int64, name string, start, end time.Time, parent, req int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// add records a span with a fresh ID and returns it.
func (t *tracer) add(name string, start, end time.Time, parent, req int64) int64 {
	id := t.newID()
	t.record(id, name, start, end, parent, req)
	return id
}

// selfTime is one span name's aggregate: call count, total duration and
// self time (duration minus the part of it covered by child spans).
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*selfTime)
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(dur-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write dumps every stored span (one JSON object a line) followed by the
// self-time summary to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"self_times": t.selfTimes(), "dropped_spans": dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate, on a throwaway tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.add("cost", now, now, -1, -1)
	}
	return time.Since(start) / n
}

// scanStats counts what the traced scanners saw.
type scanStats struct {
	calls, docs, busyNs atomic.Int64
}

// tracedScanner wraps a deployed Matcher. It implements the byte and
// batch-byte scanner interfaces the gateway probes for, so the Vetter
// keeps its zero-copy ScanAllBytes path with tracing on.
type tracedScanner struct {
	m     *kizzle.Matcher
	tr    *tracer
	stats *scanStats
}

func (s *tracedScanner) observe(name string, start time.Time, docs int) {
	end := time.Now()
	s.stats.calls.Add(1)
	s.stats.docs.Add(int64(docs))
	s.stats.busyNs.Add(end.Sub(start).Nanoseconds())
	s.tr.add(name, start, end, -1, -1)
}

func (s *tracedScanner) Scan(doc string) []kizzle.Match {
	start := time.Now()
	out := s.m.Scan(doc)
	s.observe("kizzle.scan", start, 1)
	return out
}

func (s *tracedScanner) ScanBytes(doc []byte) []kizzle.Match {
	start := time.Now()
	out := s.m.ScanBytes(doc)
	s.observe("kizzle.scan", start, 1)
	return out
}

func (s *tracedScanner) ScanAllBytes(docs [][]byte) [][]kizzle.Match {
	start := time.Now()
	out := s.m.ScanAllBytes(docs)
	s.observe("kizzle.scan_batch", start, len(docs))
	return out
}

// storeStats counts what the traced verdict store saw.
type storeStats struct {
	gets, hits, puts, getNs, putNs atomic.Int64
}

// tracedStore wraps the fleet's shared verdict cache.
type tracedStore struct {
	inner verdictcache.Store
	tr    *tracer
	stats *storeStats
}

func (s *tracedStore) Get(version int64, digest uint64) (verdictcache.Verdict, bool) {
	start := time.Now()
	v, ok := s.inner.Get(version, digest)
	end := time.Now()
	s.stats.gets.Add(1)
	if ok {
		s.stats.hits.Add(1)
	}
	s.stats.getNs.Add(end.Sub(start).Nanoseconds())
	s.tr.add("verdictcache.get", start, end, -1, version)
	return v, ok
}

func (s *tracedStore) Put(version int64, digest uint64, v verdictcache.Verdict) {
	start := time.Now()
	s.inner.Put(version, digest, v)
	end := time.Now()
	s.stats.puts.Add(1)
	s.stats.putNs.Add(end.Sub(start).Nanoseconds())
	s.tr.add("verdictcache.put", start, end, -1, version)
}

// fetchStats records signature-set responses seen by the traced
// transport: their lag behind the publish that produced them.
type fetchStats struct {
	mu  sync.Mutex
	lag []time.Duration
}

// tracedTransport wraps the sigdb clients' transport. A 200 response is
// a delivered set; its lag is measured from the moment the publish of
// that version returned.
type tracedTransport struct {
	inner     http.RoundTripper
	tr        *tracer
	published func(version int64) (time.Time, bool)
	stats     *fetchStats
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	end := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	etag := strings.Trim(resp.Header.Get("ETag"), `"v`)
	if v, perr := strconv.ParseInt(etag, 10, 64); perr == nil {
		// The long poll parks until the publish, so the span that
		// matters starts when the publish of this version returned.
		if at, ok := t.published(v); ok {
			t.stats.mu.Lock()
			t.stats.lag = append(t.stats.lag, end.Sub(at))
			t.stats.mu.Unlock()
			t.tr.add("sigdb.fetch", at, end, -1, v)
		}
	}
	return resp, err
}

func spanPath(root, workload string, seed int64) string {
	return filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
