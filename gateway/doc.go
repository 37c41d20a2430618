// Package gateway implements the paper's deployment channels as a working
// HTTP component: "Kizzle signatures may be deployed within a browser ...
// to scan all or some of the incoming JavaScript code" and "server-side,
// for instance, a CDN administrator may decide which JavaScript files to
// host". The Proxy is a reverse proxy that scans HTML/JavaScript responses
// with a deployed signature set and blocks exploit-kit landings; the
// Vetter is the CDN-side admission check for uploads.
//
// The serving hot path is built for provider load. Response bodies move
// as []byte through pooled buffers (Vetter.VetBytes, the BytesScanner
// fast path) — a vetted-and-passed response allocates nothing on the
// scan path. Concurrent admissions coalesce through the Admitter into
// micro-batches that dispatch one ScanAll sweep per batch and scan each
// distinct in-flight document once. Batches form from load, not a timer:
// a batch is whatever is already queued when the previous one finishes,
// so an idle gateway adds no queueing delay. Under the hot-key skew an
// edge actually sees, most requests are answered by another request's
// scan.
// Batched decisions are differentially pinned identical to per-document
// decisions, so batching is an economics knob, never a semantics one.
//
// Signature updates arrive through sigdb's polling client (conditional,
// jittered, per-family deltas), so a running proxy converges on a new
// published set without restarting; Vetter.Update swaps the matcher
// atomically under in-flight scans. BenchmarkServe prices the path —
// direct vs batched, cold vs warm signature swap — and reports exact
// p50/p99 custom metrics that CI's bench gate enforces as SLOs.
package gateway
