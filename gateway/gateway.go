package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/internal/servemetrics"
	"kizzle/internal/zerocopy"
)

// DefaultMaxScanBytes is the fleet-wide scan-size cap: the one constant
// every serving path sizes its buffering against, so the proxy and
// sigserve's /scan cannot drift apart on what "too big to scan" means. A
// document over the cap is never truncated-and-scanned — a truncated
// scan could miss a signature sitting past the cut and report the
// document clean with false confidence — it passes (streams) through
// unscanned and is counted, so operators can see oversized traffic
// instead of trusting a half-scan.
const DefaultMaxScanBytes = 4 << 20

// Decision is the outcome of scanning one document.
type Decision struct {
	// Blocked reports whether the document was rejected.
	Blocked bool
	// Family is the detected kit for blocked documents.
	Family string
}

// Scanner is the signature-set interface the gateway needs; both
// *kizzle.Matcher and *kizzle.MultiMatcher satisfy it.
type Scanner interface {
	Scan(doc string) []kizzle.Match
}

// BatchScanner is optionally implemented by signature sets that can scan
// documents in bulk across a worker pool (*kizzle.Matcher does). VetAll
// uses it when available.
type BatchScanner interface {
	Scanner
	ScanAll(docs []string) [][]kizzle.Match
}

// BytesScanner is optionally implemented by signature sets that can scan
// a document held in a byte slice in place (*kizzle.Matcher does).
// VetBytes uses it when available, which is what makes the proxy's pooled
// body buffers zero-copy end to end; other scanners fall back to one
// string copy.
type BytesScanner interface {
	Scanner
	ScanBytes(doc []byte) []kizzle.Match
}

// BatchBytesScanner is optionally implemented by signature sets that scan
// byte-slice batches in bulk (*kizzle.Matcher does); VetAllBytes — and
// through it the admission batcher — uses it when available.
type BatchBytesScanner interface {
	Scanner
	ScanAllBytes(docs [][]byte) [][]kizzle.Match
}

// multiAdapter lifts a MultiMatcher to the Scanner interface.
type multiAdapter struct{ m *kizzle.MultiMatcher }

func (a multiAdapter) Scan(doc string) []kizzle.Match {
	var out []kizzle.Match
	for _, fam := range a.m.Scan(doc) {
		out = append(out, kizzle.Match{Family: fam})
	}
	return out
}

// WrapMulti adapts a MultiMatcher for use as a gateway Scanner.
func WrapMulti(m *kizzle.MultiMatcher) Scanner { return multiAdapter{m: m} }

// Vetter makes admission decisions for documents. It is safe for
// concurrent use, and its signature set can be swapped live (the
// "frequent, automatic updates" of the AV distribution channel).
type Vetter struct {
	// live holds the deployed signature set together with the version
	// its verdicts may be shared under, so one load gives a batch a scanner
	// and a pin that cannot disagree.
	live atomic.Pointer[deployment]

	scanned atomic.Int64
	blocked atomic.Int64
	version atomic.Int64
	lat     servemetrics.Hist
}

// deployment is one installed signature set. pin is the version recorded
// for this very scanner by SetVersion; 0 means unpinned — the set was
// installed by Update and its version is not yet known, so its verdicts
// must not enter, or be answered from, a version-keyed shared store.
type deployment struct {
	scanner Scanner
	pin     int64
}

// NewVetter builds a vetter around an initial signature set.
func NewVetter(scanner Scanner) *Vetter {
	v := &Vetter{}
	v.live.Store(&deployment{scanner: scanner})
	return v
}

// Update swaps in a new signature set atomically. The new set is
// unpinned until SetVersion records its version.
func (v *Vetter) Update(scanner Scanner) {
	v.live.Store(&deployment{scanner: scanner})
}

// SetVersion records the deployed signature-set version for the metrics
// surface and pins the set currently installed to it; it does not affect
// scanning. Callers that poll sigdb call it right after each Update, from
// the one goroutine that deploys.
func (v *Vetter) SetVersion(version int64) {
	v.version.Store(version)
	for {
		d := v.live.Load()
		if v.live.CompareAndSwap(d, &deployment{scanner: d.scanner, pin: version}) {
			return
		}
	}
}

// Version returns the version recorded by SetVersion (0 if never set).
func (v *Vetter) Version() int64 { return v.version.Load() }

// decide folds matches into a Decision, maintaining the blocked counter.
func (v *Vetter) decide(matches []kizzle.Match) Decision {
	if len(matches) == 0 {
		return Decision{}
	}
	v.blocked.Add(1)
	return Decision{Blocked: true, Family: matches[0].Family}
}

// Vet scans one document. It is a thin compatibility wrapper over
// VetBytes: the string is viewed as bytes without copying, so the byte
// path is the single scanning implementation.
func (v *Vetter) Vet(doc string) Decision {
	return v.VetBytes(zerocopy.Bytes(doc))
}

// VetBytes scans one document held in a byte slice. With a BytesScanner
// deployed the document is scanned in place — the caller keeps ownership
// of the buffer and may reuse it the moment the call returns; decisions
// are identical to Vet(string(doc)).
func (v *Vetter) VetBytes(doc []byte) Decision {
	scanner := v.live.Load().scanner
	v.scanned.Add(1)
	if scanner == nil {
		return Decision{}
	}
	start := time.Now()
	var matches []kizzle.Match
	if bs, ok := scanner.(BytesScanner); ok {
		matches = bs.ScanBytes(doc)
	} else {
		matches = scanner.Scan(string(doc))
	}
	v.lat.Observe(time.Since(start))
	return v.decide(matches)
}

// VetAll scans a batch of documents and returns per-document decisions
// aligned with the input. It is a thin compatibility wrapper over
// VetAllBytes: documents are viewed as bytes without copying, so the
// byte path is the single batch-scanning implementation.
func (v *Vetter) VetAll(docs []string) []Decision {
	views := make([][]byte, len(docs))
	for i, doc := range docs {
		views[i] = zerocopy.Bytes(doc)
	}
	return v.VetAllBytes(views)
}

// VetAllBytes is the batch-scanning core: zero-copy with a
// BatchBytesScanner deployed, aligned with the input, and
// decision-identical to per-document VetBytes calls. Scanners that batch
// only over strings (BatchScanner) keep their worker-pool fan-out
// through zero-copy string views; plain Scanners fall back to one serial
// scan (and one string copy) per document. Buffer-ownership rules are
// those of VetBytes.
func (v *Vetter) VetAllBytes(docs [][]byte) []Decision {
	return v.vetAll(v.live.Load().scanner, docs)
}

// vetAll is VetAllBytes against a given signature set, so a caller that
// already holds a deployment scans with exactly that set.
func (v *Vetter) vetAll(scanner Scanner, docs [][]byte) []Decision {
	v.scanned.Add(int64(len(docs)))
	out := make([]Decision, len(docs))
	if scanner == nil || len(docs) == 0 {
		return out
	}
	start := time.Now()
	switch bs := scanner.(type) {
	case BatchBytesScanner:
		for i, matches := range bs.ScanAllBytes(docs) {
			out[i] = v.decide(matches)
		}
	case BatchScanner:
		views := make([]string, len(docs))
		for i, doc := range docs {
			views[i] = zerocopy.String(doc)
		}
		for i, matches := range bs.ScanAll(views) {
			out[i] = v.decide(matches)
		}
	default:
		for i, doc := range docs {
			var matches []kizzle.Match
			if s, ok := scanner.(BytesScanner); ok {
				matches = s.ScanBytes(doc)
			} else {
				matches = scanner.Scan(string(doc))
			}
			out[i] = v.decide(matches)
		}
	}
	// Batch entry points record the whole call once: that is the latency
	// every document in the batch experienced.
	v.lat.Observe(time.Since(start))
	return out
}

// Stats reports how many documents were scanned and blocked.
func (v *Vetter) Stats() (scanned, blocked int64) {
	return v.scanned.Load(), v.blocked.Load()
}

// ScanLatency exposes the vetter's scan-latency histogram (p50/p99 for
// the /metrics surface). Batch calls record one observation per call,
// per-document calls one per document.
func (v *Vetter) ScanLatency() *servemetrics.Hist { return &v.lat }

// Metrics returns the vetter's /metrics fields: scan and block counts,
// the recorded signature-set version, and the scan-latency summary.
func (v *Vetter) Metrics() map[string]any {
	return map[string]any{
		"scanned":         v.scanned.Load(),
		"blocked":         v.blocked.Load(),
		"matcher_version": v.version.Load(),
		"scan_latency":    v.lat.Summary(),
	}
}

// Proxy is a scanning reverse proxy: HTML and JavaScript responses from the
// upstream are buffered, vetted, and replaced with 403 when a signature
// fires. Non-script content passes through untouched.
type Proxy struct {
	vetter *Vetter
	proxy  *httputil.ReverseProxy
	// admit, when set by UseAdmitter, routes each body through the
	// admission batcher instead of a direct per-document vet.
	admit *Admitter
	// MaxScanBytes bounds how much of a response is buffered for
	// scanning (default DefaultMaxScanBytes); larger responses stream
	// through unscanned — never truncated-and-scanned — rather than
	// stalling the proxy.
	MaxScanBytes int64
}

// NewProxy builds a scanning reverse proxy in front of upstream.
func NewProxy(upstream *url.URL, vetter *Vetter) *Proxy {
	p := &Proxy{vetter: vetter, MaxScanBytes: DefaultMaxScanBytes}
	rp := httputil.NewSingleHostReverseProxy(upstream)
	rp.ModifyResponse = p.modifyResponse
	p.proxy = rp
	return p
}

// UseAdmitter routes the proxy's admission decisions through a (already
// running) Admitter, so concurrent in-flight responses coalesce into
// micro-batches — and duplicate in-flight documents into single scans —
// instead of each paying its own scan. Decisions are identical to the
// direct path. Call before serving; the admitter must outlive the proxy.
func (p *Proxy) UseAdmitter(a *Admitter) { p.admit = a }

var _ http.Handler = (*Proxy)(nil)

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.proxy.ServeHTTP(w, r)
}

// scannable reports whether a response content type carries script.
func scannable(contentType string) bool {
	ct := strings.ToLower(contentType)
	return strings.Contains(ct, "text/html") ||
		strings.Contains(ct, "javascript") ||
		strings.Contains(ct, "ecmascript")
}

// bodyPool recycles response-body buffers across proxied requests: a
// vetted-and-passed response costs zero scan-path allocations in steady
// state. 64 KiB starting capacity holds the overwhelming share of web
// responses; larger bodies grow their pooled buffer once and the grown
// buffer is what returns to the pool.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readBodyInto reads r to EOF into buf (growing it as needed), stopping
// early once more than max bytes have been read. It returns the filled
// buffer; the caller decides what an over-max read means.
func readBodyInto(buf []byte, r io.Reader, max int64) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if int64(len(buf)) > max {
			return buf, nil
		}
	}
}

// pooledBody is a response body backed by a pooled buffer: Close returns
// the buffer to the pool (and closes the remaining upstream body, when
// the oversized path left one attached). Close is idempotent —
// http.ReverseProxy closes the body it copies from, but defensive double
// closes must not double-free the buffer.
type pooledBody struct {
	io.Reader
	buf  *[]byte
	rest io.Closer
}

func (pb *pooledBody) Close() error {
	if pb.buf != nil {
		bodyPool.Put(pb.buf)
		pb.buf = nil
	}
	if pb.rest != nil {
		rest := pb.rest
		pb.rest = nil
		return rest.Close()
	}
	return nil
}

func (p *Proxy) modifyResponse(resp *http.Response) error {
	if !scannable(resp.Header.Get("Content-Type")) {
		return nil
	}
	if resp.ContentLength > p.MaxScanBytes {
		return nil
	}
	bp := bodyPool.Get().(*[]byte)
	body, err := readBodyInto((*bp)[:0], resp.Body, p.MaxScanBytes)
	*bp = body[:0] // keep any growth pooled, whatever path returns it
	if err != nil {
		bodyPool.Put(bp)
		resp.Body.Close()
		return fmt.Errorf("gateway: read upstream body: %w", err)
	}
	if int64(len(body)) > p.MaxScanBytes {
		// Too large to scan (chunked responses reach here: their length is
		// unknown until read). Pass through what was buffered followed by
		// the rest of the upstream body, unconsumed and untruncated.
		resp.Body = &pooledBody{
			Reader: io.MultiReader(bytes.NewReader(body), resp.Body),
			buf:    bp,
			rest:   resp.Body,
		}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return nil
	}
	if closeErr := resp.Body.Close(); closeErr != nil {
		bodyPool.Put(bp)
		return fmt.Errorf("gateway: close upstream body: %w", closeErr)
	}
	var d Decision
	if p.admit != nil {
		d = p.admit.VetBytes(body)
	} else {
		d = p.vetter.VetBytes(body)
	}
	if d.Blocked {
		bodyPool.Put(bp)
		blocked := fmt.Sprintf("blocked by kizzle: %s exploit kit detected\n", d.Family)
		resp.StatusCode = http.StatusForbidden
		resp.Status = http.StatusText(http.StatusForbidden)
		resp.Header = http.Header{"Content-Type": {"text/plain; charset=utf-8"}}
		resp.Body = io.NopCloser(strings.NewReader(blocked))
		resp.ContentLength = int64(len(blocked))
		return nil
	}
	resp.Body = &pooledBody{Reader: bytes.NewReader(body), buf: bp}
	resp.ContentLength = int64(len(body))
	return nil
}
