package shardcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/pipeline"
	"kizzle/internal/servemetrics"
)

// maxPartitionRequestBytes caps one /partition or /edges request body. A
// work unit carries abstract symbol sequences only (two bytes per symbol
// before framing), so 64 MiB covers units far beyond the default sizes.
const maxPartitionRequestBytes = 64 << 20

// PartitionRequest is the wire form of one clustering work unit: the
// partition plus the two DBSCAN parameters the coordinator resolved. The
// worker contributes its own parallelism and cache. PreReduce (protocol
// v2) asks the worker to also pre-reduce the partition — merge clusters
// whose representatives fall within eps and fold local noise — and answer
// with the compacted summary; v1 workers ignore the field and answer with
// raw clusters, which the coordinator then pre-reduces itself.
type PartitionRequest struct {
	Eps       float64                 `json:"eps"`
	MinPts    int                     `json:"minPts"`
	Partition pipeline.ShardPartition `json:"partition"`
	PreReduce bool                    `json:"preReduce,omitempty"`
	// Profile names the ingest profile whose alphabet the sequences were
	// lexed under; empty means the default JS profile (pre-profile
	// coordinators never send the field).
	Profile string `json:"profile,omitempty"`
}

// PartitionResponse is the wire form of a partition's clustering result,
// in partition-local indices. Exactly one part is populated: Reduced iff
// the request asked for pre-reduce (the raw clusters are omitted — the
// coordinator only reads the summary), raw ShardClusters otherwise.
type PartitionResponse struct {
	pipeline.ShardClusters
	Reduced *pipeline.ReducedPartition `json:"reduced,omitempty"`
}

// EdgeRequest is the wire form of one reduce distance sweep (protocol
// v2): which pairs of the shipped sequences are within eps.
type EdgeRequest struct {
	Job pipeline.EdgeJob `json:"job"`
	// Profile names the ingest profile of the job's alphabet ("" = js).
	Profile string `json:"profile,omitempty"`
}

// EdgeResponse carries the within-eps pairs back.
type EdgeResponse struct {
	pipeline.EdgeList
}

// EdgeRequestV3 is the digest-first form of a distance sweep (protocol
// v3): the job references its sequences by content address and ships raw
// packed bytes only for the positions in FillAt (Fill aligned with it).
// Every other key must already sit in the worker's resident set; keys the
// worker cannot resolve come back in EdgeResponseV3.Missing and the
// coordinator refills them — the inline-miss dance that makes a restarted
// (resident-set-empty) worker a slow request, never a wrong answer.
type EdgeRequestV3 struct {
	Eps    float64             `json:"eps"`
	Keys   []pipeline.SeqKey   `json:"keys"`
	FillAt []int               `json:"fillAt,omitempty"`
	Fill   pipeline.PackedSeqs `json:"fill,omitempty"`
	Rows   []int               `json:"rows"`
	Cols   []int               `json:"cols,omitempty"`
	// Profile names the ingest profile of the fills' alphabet ("" = js).
	Profile string `json:"profile,omitempty"`
}

// EdgeResponseV3 answers a digest-first sweep: either the within-eps
// pairs, or the key positions the worker does not hold (in which case no
// sweep ran and the coordinator must refill).
type EdgeResponseV3 struct {
	pipeline.EdgeList
	Missing []int `json:"missing,omitempty"`
}

// Worker executes clustering work units. It is safe for concurrent use;
// each request computes independently (the shared pair-verdict cache and
// the resident set are internally synchronized).
type Worker struct {
	workers  int
	cache    *contentcache.Cache
	resident *residentSet

	partitions atomic.Int64
	edges      atomic.Int64
	edgesV3    atomic.Int64
	workLat    servemetrics.Hist
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithWorkerParallelism sets how many goroutines one work unit's distance
// sweep fans out across (default GOMAXPROCS). Production shards on
// dedicated machines keep the default; the loopback benchmark sets 1 so a
// worker models one machine core.
func WithWorkerParallelism(n int) WorkerOption {
	return func(w *Worker) { w.workers = n }
}

// WithWorkerCache gives the worker a content-addressed cache for pair
// within-eps verdicts, carried across requests — day N+1's recurring
// shapes skip the edit-distance kernel entirely, for partition clustering
// and reduce sweeps alike. Pair it with contentcache.Load / Save
// (pipeline.CacheCodecs) to keep the warm verdicts across restarts.
func WithWorkerCache(c *contentcache.Cache) WorkerOption {
	return func(w *Worker) { w.cache = c }
}

// WithWorkerResidentBudget bounds a digest→sequence resident set (bytes;
// 0 or negative disables it) and thereby enables the digest-first edge
// protocol: every partition the worker clusters and every edge fill it
// receives is kept addressable by content key, LRU-evicted within the
// budget, so subsequent /edges3 requests ship keys instead of sequence
// bytes. Purely an economics knob — a disabled or cold resident set makes
// the coordinator fall back to shipping everything, never changes output.
func WithWorkerResidentBudget(bytes int) WorkerOption {
	return func(w *Worker) {
		if bytes > 0 {
			w.resident = newResidentSet(int64(bytes))
		} else {
			w.resident = nil
		}
	}
}

// NewWorker builds a shard worker.
func NewWorker(opts ...WorkerOption) *Worker {
	w := &Worker{workers: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Cache returns the worker's verdict cache (nil when not configured), so
// the owning process can persist it on shutdown.
func (w *Worker) Cache() *contentcache.Cache { return w.cache }

// validateSeqs rejects wire sequences carrying symbols outside the named
// ingest profile's abstraction alphabet — untrusted data that a
// pre-profile kernel would have indexed past its histogram arenas with.
// An empty profile name is the historical wire form and means js; an
// unknown name is a hard error (the worker cannot bound the alphabet).
func validateSeqs(seqs [][]jstoken.Symbol, profile string) error {
	p := ingest.Default()
	if profile != "" {
		var ok bool
		if p, ok = ingest.Lookup(profile); !ok {
			return fmt.Errorf("shardcoord: unknown ingest profile %q", profile)
		}
	}
	space := jstoken.Symbol(p.SymbolSpace())
	for i, seq := range seqs {
		for _, sym := range seq {
			if sym >= space {
				return fmt.Errorf("shardcoord: sequence %d carries symbol %d outside the %s alphabet (%d)", i, sym, p.ID(), space)
			}
		}
	}
	return nil
}

// Cluster executes one partition request locally — the computation behind
// POST /partition.
func (w *Worker) Cluster(req *PartitionRequest) (*PartitionResponse, error) {
	if len(req.Partition.Seqs) != len(req.Partition.Weights) {
		return nil, fmt.Errorf("shardcoord: %d sequences with %d weights",
			len(req.Partition.Seqs), len(req.Partition.Weights))
	}
	if err := validateSeqs(req.Partition.Seqs, req.Profile); err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		Eps:     req.Eps,
		MinPts:  req.MinPts,
		Workers: w.workers,
		Cache:   w.cache,
	}
	if w.resident != nil {
		// Grow the resident set: every sequence this worker clusters stays
		// addressable by content key, so later digest-first sweeps over the
		// partition's representatives and noise ship keys, not bytes. The
		// keys are recomputed here — the coordinator's copy never rides the
		// wire, and wire data is untrusted anyway.
		for _, seq := range req.Partition.Seqs {
			w.resident.put(pipeline.SeqKeyOf(seq), seq)
		}
	}
	clusters := pipeline.ClusterPartition(req.Partition, cfg)
	if req.PreReduce {
		// The coordinator consumes only the summary when it asked for
		// pre-reduce; shipping the raw clusters alongside would double the
		// response payload for no reader.
		reduced := pipeline.PreReducePartition(req.Partition, clusters, cfg)
		return &PartitionResponse{Reduced: &reduced}, nil
	}
	return &PartitionResponse{ShardClusters: clusters}, nil
}

// Edges executes one distance-sweep request locally — the computation
// behind POST /edges.
func (w *Worker) Edges(req *EdgeRequest) (*EdgeResponse, error) {
	if err := validateSeqs(req.Job.Seqs, req.Profile); err != nil {
		return nil, err
	}
	if w.resident != nil {
		// A v2 sweep still feeds the resident set: fleets mixing v2 and v3
		// coordinators warm the same cache.
		for _, seq := range req.Job.Seqs {
			w.resident.put(pipeline.SeqKeyOf(seq), seq)
		}
	}
	list, err := pipeline.SweepEdges(req.Job, w.workers, w.cache)
	if err != nil {
		return nil, fmt.Errorf("shardcoord: %w", err)
	}
	return &EdgeResponse{EdgeList: list}, nil
}

// EdgesV3 executes one digest-first distance sweep — the computation
// behind POST /edges3. Fills are verified against their declared keys
// (wire data is untrusted; a mismatched fill is a hard 400, because a
// silently accepted one would poison every later request that resolves
// the key), resident keys are resolved locally, and unresolvable keys
// come back in Missing without running the sweep.
func (w *Worker) EdgesV3(req *EdgeRequestV3) (*EdgeResponseV3, error) {
	if w.resident == nil {
		return nil, errResidentDisabled
	}
	if len(req.FillAt) != len(req.Fill) {
		return nil, fmt.Errorf("shardcoord: %d fill positions with %d fills", len(req.FillAt), len(req.Fill))
	}
	if err := validateSeqs(req.Fill, req.Profile); err != nil {
		return nil, err
	}
	seqs := make([][]jstoken.Symbol, len(req.Keys))
	filled := make([]bool, len(req.Keys))
	for i, at := range req.FillAt {
		if at < 0 || at >= len(req.Keys) {
			return nil, fmt.Errorf("shardcoord: fill position %d outside [0,%d)", at, len(req.Keys))
		}
		if filled[at] {
			return nil, fmt.Errorf("shardcoord: fill position %d sent twice", at)
		}
		if got := pipeline.SeqKeyOf(req.Fill[i]); got != req.Keys[at] {
			return nil, fmt.Errorf("shardcoord: fill %d does not match its declared key", i)
		}
		seqs[at] = req.Fill[i]
		filled[at] = true
	}
	var missing []int
	for i, key := range req.Keys {
		if filled[i] {
			continue
		}
		seq, ok := w.resident.get(key)
		if !ok {
			missing = append(missing, i)
			continue
		}
		seqs[i] = seq
	}
	// Fills stick regardless of outcome, so a refill round (and every
	// later sweep) finds them resident. Installed after resolution: an
	// install-order eviction must never knock out a fill this same request
	// depends on.
	for i, at := range req.FillAt {
		w.resident.put(req.Keys[at], req.Fill[i])
	}
	if len(missing) > 0 {
		return &EdgeResponseV3{Missing: missing}, nil
	}
	job := pipeline.EdgeJob{Eps: req.Eps, Seqs: seqs, Rows: req.Rows, Cols: req.Cols}
	list, err := pipeline.SweepEdges(job, w.workers, w.cache)
	if err != nil {
		return nil, fmt.Errorf("shardcoord: %w", err)
	}
	return &EdgeResponseV3{EdgeList: list}, nil
}

// errResidentDisabled marks a v3 request against a worker running without
// a resident set; the HTTP layer answers 404, which coordinators read as
// the capability miss it is.
var errResidentDisabled = errors.New("shardcoord: digest-first edges require a resident set (WithWorkerResidentBudget)")

// Handler serves the worker over HTTP:
//
//	POST /partition — cluster one PartitionRequest, respond PartitionResponse
//	POST /edges     — run one EdgeRequest distance sweep, respond EdgeResponse
//	POST /edges3    — run one digest-first EdgeRequestV3 sweep (only with a
//	                  resident set; absent otherwise, so coordinators read
//	                  the 404 as a capability miss and fall back to v2)
//	GET  /healthz   — liveness plus cache and resident-set occupancy
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/partition", w.servePartition)
	mux.HandleFunc("/edges", w.serveEdges)
	if w.resident != nil {
		mux.HandleFunc("/edges3", w.serveEdgesV3)
	}
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		st := w.cache.Stats()
		fmt.Fprintf(rw, "ok cache-entries=%d cache-bytes=%d", st.Entries, st.Bytes)
		if w.resident != nil {
			entries, bytes := w.resident.stats()
			fmt.Fprintf(rw, " resident-entries=%d resident-bytes=%d", entries, bytes)
		}
		fmt.Fprintln(rw)
	})
	mux.Handle("/metrics", servemetrics.Handler(w.Metrics))
	return mux
}

// Metrics returns the worker's /metrics fields: work-unit counters by
// endpoint, work-unit latency, verdict-cache hit rates, and resident-set
// occupancy.
func (w *Worker) Metrics() map[string]any {
	st := w.cache.Stats()
	out := map[string]any{
		"partitions":       w.partitions.Load(),
		"edges":            w.edges.Load(),
		"edges3":           w.edgesV3.Load(),
		"work_latency":     w.workLat.Summary(),
		"cache_entries":    st.Entries,
		"cache_bytes":      st.Bytes,
		"cache_hits":       st.Hits,
		"cache_misses":     st.Misses,
		"cache_hit_rate":   st.HitRate(),
		"resident_enabled": w.resident != nil,
		"runtime":          servemetrics.RuntimeStats(),
	}
	if w.resident != nil {
		entries, bytes := w.resident.stats()
		out["resident_entries"] = entries
		out["resident_bytes"] = bytes
	}
	return out
}

// decodeBody decodes a capped JSON request body, translating oversized
// bodies into 413s.
func decodeBody(rw http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(rw, r.Body, maxPartitionRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, "bad request: "+err.Error(), status)
		return false
	}
	return true
}

func (w *Worker) servePartition(rw http.ResponseWriter, r *http.Request) {
	var req PartitionRequest
	if !decodeBody(rw, r, &req) {
		return
	}
	w.partitions.Add(1)
	start := time.Now()
	resp, err := w.Cluster(&req)
	w.workLat.Observe(time.Since(start))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(rw, resp)
}

func (w *Worker) serveEdges(rw http.ResponseWriter, r *http.Request) {
	var req EdgeRequest
	if !decodeBody(rw, r, &req) {
		return
	}
	w.edges.Add(1)
	start := time.Now()
	resp, err := w.Edges(&req)
	w.workLat.Observe(time.Since(start))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(rw, resp)
}

func (w *Worker) serveEdgesV3(rw http.ResponseWriter, r *http.Request) {
	var req EdgeRequestV3
	if !decodeBody(rw, r, &req) {
		return
	}
	w.edgesV3.Add(1)
	start := time.Now()
	resp, err := w.EdgesV3(&req)
	w.workLat.Observe(time.Since(start))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(rw, resp)
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	// An encode failure means headers already went out; the coordinator
	// sees a truncated body and retries on another shard.
	_ = json.NewEncoder(rw).Encode(v)
}
