package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/jstoken"
	"kizzle/internal/parallel"
	"kizzle/internal/siggen"
	"kizzle/internal/winnow"
)

// Cache-entry kinds for the content-addressed cache the pipeline threads
// through its hot stages: raw document → abstract symbol sequence, raw
// prototype → unpack result, unpacked payload → winnow fingerprint.
//
// Kinds whose value depends on the ingest profile's lexer or unpacker
// (kindRawSymbols, kindUnpack, kindTokens, kindSignature) are offset by
// Profile.KindOffset at use sites so the same document ingested under two
// profiles never aliases. The profile-independent kinds — fingerprints
// and label verdicts (pure functions of text), pair verdicts (pure
// functions of symbol values) — stay shared across profiles.
const (
	kindRawSymbols contentcache.Kind = iota + 1
	kindUnpack
	kindFingerprint
	kindLabel
	kindTokens
	kindSignature
	kindPairVerdict
)

// profiledKind offsets a lexer/unpacker-dependent cache kind into the
// profile's kind range. The js profile's offset is 0, keeping its keys —
// and every historical cache snapshot — byte-identical.
func profiledKind(kind contentcache.Kind, p ingest.Profile) contentcache.Kind {
	return kind + contentcache.Kind(p.KindOffset())
}

// DefaultEps is the paper's empirically determined DBSCAN threshold on
// normalized token edit distance (§V "Tuning the ML"); every eps
// defaulting site shares it so the clustering and pre-reduce kernels can
// never drift apart.
const DefaultEps = 0.10

// Input is one grayware sample handed to the pipeline.
type Input struct {
	// ID identifies the sample in results.
	ID string
	// Content is the HTML document (or raw JavaScript).
	Content string
}

// Config holds the pipeline's tuning knobs (paper §V "Tuning the ML").
type Config struct {
	// Workers is the clustering parallelism (the paper used 50 machines;
	// workers here are goroutines). Defaults to GOMAXPROCS.
	Workers int
	// PartitionSize is the target number of unique token sequences per
	// partition.
	PartitionSize int
	// PartitionFanout is how many partitions fill concurrently during
	// streaming dedup: new unique sequences are scattered round-robin
	// across this many open buffers (the streaming stand-in for the
	// paper's random partitioning), so one family's consecutive variants
	// spread across partitions instead of piling into one. Defaults to 8.
	PartitionFanout int
	// Eps is the normalized edit-distance threshold for DBSCAN; the
	// paper determined 0.10 experimentally.
	Eps float64
	// MinPts is DBSCAN's minimum weighted neighborhood size.
	MinPts int
	// Winnow configures cluster-labeling fingerprints.
	Winnow winnow.Config
	// Signature configures signature generation.
	Signature siggen.Config
	// Thresholds maps family label to the minimum winnow overlap needed
	// to label a cluster with that family ("a threshold that we
	// determined empirically is malware family specific").
	Thresholds map[string]float64
	// DefaultThreshold applies to families missing from Thresholds.
	DefaultThreshold float64
	// MaxNoiseRecluster caps the reduce step's global re-clustering of
	// partition-level noise (0 disables the cap).
	MaxNoiseRecluster int
	// NoiseChunk, when positive, splits a noise pool larger than one chunk
	// into fixed-size chunks in content-digest order and re-clusters each
	// chunk independently — bounding the reduce's quadratic noise sweep at
	// provider scale (chunked pools bypass MaxNoiseRecluster). Cross-chunk
	// noise pairs go untested; straggler adoption still sees the full
	// leftover pool. Digest ordering keeps chunk membership a pure function
	// of content, so the output stays independent of shard count and
	// scheduling. 0 (the default) disables chunking.
	NoiseChunk int
	// MaxSignatureSamples caps how many cluster samples feed signature
	// generalization.
	MaxSignatureSamples int
	// Cache is an optional content-addressed cache shared across Process
	// calls (and, at the harness level, across days). Identical raw
	// documents skip tokenization, previously seen prototypes skip
	// unpacking, and previously seen unpacked payloads reuse their winnow
	// fingerprints — day N+1 pays only for content it has not seen. A nil
	// cache disables cross-run reuse; in-run duplicate collapsing still
	// happens.
	Cache *contentcache.Cache
	// Clusterer, when non-nil, runs the partition-clustering stage through
	// an external dispatcher — the paper's 50-machine layout. Partitions
	// are handed out as ShardPartition work units and the results merged
	// back before the reduce step; output is identical to in-process
	// clustering (see internal/shardcoord for the HTTP coordinator/worker
	// implementation). Dispatchers that also implement StreamClusterer
	// receive partitions while dedup is still running and host the reduce
	// step's distance sweeps as edge jobs. Nil clusters in-process across
	// Workers goroutines.
	Clusterer Clusterer
	// BatchDispatch disables streaming: partitions are collected and
	// dispatched in one batch after dedup completes, and the reduce
	// sweeps stay on the coordinator — the pre-streaming cost model,
	// kept for profiling A/B runs and protocol-v1 fleets. Output is
	// identical either way.
	BatchDispatch bool
	// DisableShardPreReduce keeps the per-partition pre-reduce on the
	// coordinator instead of asking shard workers for it (protocol v2).
	// Output is identical; the knob only shifts where the work runs.
	DisableShardPreReduce bool
	// ScheduleSeed, when nonzero, applies a seeded deterministic
	// permutation to the streamed reduce sweeps' row order before edge
	// jobs are composed (and, at the shard coordinator, to the pull
	// queue's shard assignment). Both levers are output-invariant by
	// construction — every unordered pair still lands in exactly one edge
	// job and results are matched back by sequence number — so a
	// certification verifier can recompile through a genuinely different
	// schedule and still demand bit-identical output. 0 (the default)
	// keeps the canonical schedule.
	ScheduleSeed int64
	// ShardWorkers lists remote shard-worker base URLs. The field is not
	// consumed by the pipeline itself: the top-level constructor
	// (kizzle.New) builds an HTTP coordinator over the URLs after all
	// options are applied, so affinity and schedule knobs set by later
	// options compose with the fleet instead of depending on option
	// order. Ignored when Clusterer is already set.
	ShardWorkers []string
	// ShardNoAffinity disables the shard coordinator's locality layer
	// (affinity routing and the digest-first v3 edge wire) when kizzle.New
	// constructs one from ShardWorkers. Output is identical either way —
	// it is a differential-testing and certification-path lever.
	ShardNoAffinity bool
	// Profile selects the ingest front-end (tokenizer, streaming symbol
	// lexer, unpacker, alphabet). Nil means the default JS exploit-kit
	// profile, bit-identical to the pre-profile pipeline.
	Profile ingest.Profile
	// Faults accumulates option-validation failures. Option constructors
	// (kizzle.With*) append here instead of silently clamping invalid
	// values; Process refuses to run while any fault is recorded.
	Faults []string
}

// profile resolves the configured ingest profile, defaulting to JS.
func (c Config) profile() ingest.Profile {
	if c.Profile != nil {
		return c.Profile
	}
	return ingest.Default()
}

// ProfileID names the configured ingest profile on the wire. The default
// JS profile reports "" so pre-profile shard workers keep accepting the
// requests unchanged.
func (c Config) ProfileID() string {
	if id := c.profile().ID(); id != ingest.Default().ID() {
		return id
	}
	return ""
}

// DefaultConfig returns the parameters used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Workers:       runtime.GOMAXPROCS(0),
		PartitionSize: 300,
		Eps:           DefaultEps,
		MinPts:        2,
		Winnow:        winnow.DefaultConfig(),
		Signature:     siggen.DefaultConfig(),
		// Family-specific thresholds, "determined empirically". Nuclear
		// needs a high bar because the benign PluginDetect library
		// legitimately shares its detection core (Figure 15: a 79–88%
		// overlap false positive); RIG needs a low bar because its short
		// body churns ~50% day over day (Figure 11d).
		Thresholds: map[string]float64{
			"Nuclear": 0.88,
			"RIG":     0.45,
		},
		DefaultThreshold:    0.60,
		MaxNoiseRecluster:   3000,
		MaxSignatureSamples: 24,
	}
}

// Threshold resolves the labeling threshold for a family.
func (c Config) Threshold(family string) float64 {
	if t, ok := c.Thresholds[family]; ok {
		return t
	}
	return c.DefaultThreshold
}

// Cluster is one merged cluster with its label.
type Cluster struct {
	// Samples indexes into the Process inputs.
	Samples []int
	// Prototype is the representative sample index.
	Prototype int
	// Label is the kit family, or "" for benign.
	Label string
	// Overlap is the winnow overlap that produced the label.
	Overlap float64
	// Unpacked is the prototype's decoded payload (or its own script
	// text when not packed).
	Unpacked string
	// UnpackMethod names the unpacker that fired ("" if none).
	UnpackMethod string
	// SignatureIndex points into Result.Signatures, -1 if none.
	SignatureIndex int
}

// Stats captures the per-stage costs the paper discusses (§IV
// "Cluster-Based Processing Performance": clustering dominates, the reduce
// step is the bottleneck to parallelize next).
type Stats struct {
	Samples         int
	UniqueSequences int
	Partitions      int
	Clusters        int
	Malicious       int
	NoisePoints     int

	// UniqueDocuments counts distinct raw documents after content-digest
	// pre-deduplication; Samples-UniqueDocuments were never tokenized.
	UniqueDocuments int
	// LabelSweeps counts per-family corpus sweeps executed while labeling
	// clusters. Cold labeling pays one sweep per (payload, family); with a
	// warm label cache only families whose corpus generation moved since
	// the verdict was cached are re-swept, so a corpus Add to one family
	// costs one sweep per re-labeled payload, not a full corpus pass.
	// Purely observational — sweep counts never affect labels.
	LabelSweeps int
	// EdgeJobs counts the reduce-step distance sweeps dispatched to shard
	// workers as edge work units (zero for in-process and batch runs).
	EdgeJobs int
	// WireBytes is what this run actually shipped to the shard fleet and
	// got back — request plus response bodies of every successful
	// /partition and /edges (v2 or digest-first v3) round trip.
	// EdgeWireBytes is the /edges share, the number the affinity wire
	// cache exists to shrink. Both are zero when the dispatcher does not
	// expose wire accounting (in-process runs, custom transports).
	WireBytes     int64
	EdgeWireBytes int64
	// CacheHits / CacheMisses are this run's content-cache lookups (zero
	// without a configured cache).
	CacheHits   int64
	CacheMisses int64

	// Stage wall-clock times. Under streaming dispatch the stages overlap:
	// Tokenize covers the fused lex+dedup+emit loop (during which the
	// fleet is already clustering), Cluster the residual wait for the last
	// partition result, and Reduce the summary merge including its
	// (possibly dispatched) distance sweeps.
	Tokenize  time.Duration
	Cluster   time.Duration
	Reduce    time.Duration
	Label     time.Duration
	Signature time.Duration
	// ReduceDispatch is the part of Reduce spent blocked on distance
	// sweeps dispatched to the fleet (zero for in-process and batch runs);
	// Reduce minus ReduceDispatch is the coordinator's serial residue.
	ReduceDispatch time.Duration
	// CoordPreReduce is the part of Cluster the coordinator spent
	// serially pre-reducing partition results — nonzero only under batch
	// (protocol v1) dispatch through a Clusterer, where that work cannot
	// run shard-side. Fleet cost models must count it as coordinator
	// serial time.
	CoordPreReduce time.Duration
}

// Result is the output of one pipeline run.
type Result struct {
	Clusters   []Cluster
	Signatures []siggen.Signature
	Stats      Stats
}

// ErrNoInputs is returned when Process is called with an empty batch.
var ErrNoInputs = errors.New("pipeline: no input samples")

// Process runs the full pipeline over one batch of samples.
func Process(inputs []Input, corpus *Corpus, cfg Config) (Result, error) {
	if len(inputs) == 0 {
		return Result{}, ErrNoInputs
	}
	if len(cfg.Faults) > 0 {
		return Result{}, fmt.Errorf("pipeline: invalid options: %s", strings.Join(cfg.Faults, "; "))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PartitionSize <= 0 {
		cfg.PartitionSize = 300
	}
	if cfg.Eps <= 0 {
		cfg.Eps = DefaultEps
	}
	if cfg.MinPts <= 0 {
		cfg.MinPts = 2
	}

	if cfg.Cache == nil {
		// A transient per-run cache still pays for itself: clusters of one
		// family frequently unpack to the same payload, so unpack results,
		// fingerprints, and label verdicts are shared across clusters even
		// within a single batch. Cross-run reuse needs a caller-provided
		// cache.
		cfg.Cache = contentcache.New(16 << 20)
	}

	var res Result
	res.Stats.Samples = len(inputs)
	preCache := cfg.Cache.Stats()
	// Wire accounting is cumulative on the transport; Stats carries this
	// run's delta.
	var preWire, preEdgeWire int64
	wires, _ := cfg.Clusterer.(wireByteser)
	if wires != nil {
		preWire, preEdgeWire = wires.WireBytes()
	}

	// Stages 1–3, fused and streamed: content-digest pre-dedup, chunked
	// look-ahead tokenization straight to abstract symbols (token values
	// are never materialized here; the signature stage re-lexes the few
	// samples it needs), sequence dedup, and partition emission — each
	// partition dispatched to the cluster session the moment it fills, so
	// a shard fleet clusters while the host still lexes the tail. Exploit-
	// kit randomization leaves the abstract sequence intact, so dedup
	// often collapses a family's whole day into a handful of points.
	sess := openClusterSession(cfg)
	defer sess.close()
	start := time.Now()
	outcome := runClusterStage(inputs, cfg, sess)
	res.Stats.Tokenize = time.Since(start)
	res.Stats.UniqueDocuments = outcome.uniqueDocs
	uniq := outcome.u
	res.Stats.UniqueSequences = len(uniq.seqs)
	res.Stats.Partitions = outcome.partitions

	// Residual clustering wait: partitions still in flight when the host
	// finished its serial work.
	start = time.Now()
	sums, err := sess.collect(&uniq)
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: %w", err)
	}
	res.Stats.Cluster = time.Since(start)

	// Stage 4: hierarchical reduce over the pre-reduced partition
	// summaries — representative merge, noise re-clustering, straggler
	// adoption — with the distance sweeps running through the session
	// (in-process, or fanned out to the fleet as edge jobs).
	start = time.Now()
	weightOf := func(ui int) int { return outcome.emitWeight[ui] }
	digestOf := func(ui int) uint64 { return uniq.ids[ui].h1 }
	merged, remaining, err := reduceSummaries(sums, weightOf, digestOf, cfg, sess.edges)
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: reduce: %w", err)
	}
	res.Stats.Reduce = time.Since(start)
	res.Stats.EdgeJobs, res.Stats.ReduceDispatch = sess.edgeStats()
	res.Stats.CoordPreReduce = sess.preReduceTime()
	res.Stats.NoisePoints = 0
	for _, u := range remaining {
		res.Stats.NoisePoints += len(uniq.members[u])
	}

	// Stage 5: label each cluster via its unpacked prototype.
	start = time.Now()
	res.Clusters, res.Stats.LabelSweeps = labelClusters(inputs, uniq, merged, corpus, cfg)
	res.Stats.Label = time.Since(start)
	res.Stats.Clusters = len(res.Clusters)

	// Stage 6: signatures for malicious clusters, generated in parallel
	// and assembled in cluster order so the output is identical to the
	// serial loop.
	start = time.Now()
	type sigResult struct {
		sig siggen.Signature
		ok  bool
	}
	sigResults := make([]sigResult, len(res.Clusters))
	var malicious []int
	for ci := range res.Clusters {
		res.Clusters[ci].SignatureIndex = -1
		if res.Clusters[ci].Label != "" {
			malicious = append(malicious, ci)
		}
	}
	res.Stats.Malicious = len(malicious)
	parallel.ForEach(len(malicious), cfg.Workers, 1, func(_, k int) {
		ci := malicious[k]
		sig, err := generateSignature(&res.Clusters[ci], inputs, cfg)
		// A failed generation (short common runs happen occasionally)
		// leaves the cluster labeled but unsignatured.
		sigResults[ci] = sigResult{sig: sig, ok: err == nil}
	})
	for ci := range res.Clusters {
		if sigResults[ci].ok {
			res.Clusters[ci].SignatureIndex = len(res.Signatures)
			res.Signatures = append(res.Signatures, sigResults[ci].sig)
		}
	}
	res.Stats.Signature = time.Since(start)
	postCache := cfg.Cache.Stats()
	res.Stats.CacheHits = postCache.Hits - preCache.Hits
	res.Stats.CacheMisses = postCache.Misses - preCache.Misses
	if wires != nil {
		postWire, postEdgeWire := wires.WireBytes()
		res.Stats.WireBytes = postWire - preWire
		res.Stats.EdgeWireBytes = postEdgeWire - preEdgeWire
	}
	return res, nil
}

// wireByteser is the optional wire-accounting seam a dispatcher can
// implement (shardcoord.Coordinator does): cumulative bytes shipped over
// all successful round trips, total and /edges-only.
type wireByteser interface {
	WireBytes() (total, edges int64)
}

// uniqueSet groups samples with identical abstract sequences.
type uniqueSet struct {
	seqs    [][]jstoken.Symbol
	members [][]int // members[u] = input indices sharing seqs[u]
	ids     []seqID // cache identities, aligned with seqs
}

func hashSeq(s []jstoken.Symbol) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range s {
		h ^= uint64(x)
		h *= prime
	}
	return h
}

// seqID identifies a symbol sequence for cross-run caching: two
// independent 64-bit hashes plus the length. The eps-verdict cache keys
// pairs of these; a wrong hit needs a simultaneous collision of both
// hashes and the length, which is the same identity strength the
// content-addressed store provides elsewhere.
type seqID struct {
	h1, h2 uint64
	n      int
}

// altHashSeq is a second, independently mixed sequence hash.
func altHashSeq(s []jstoken.Symbol) uint64 {
	const (
		p1 = 11400714785074694791
		p2 = 14029467366897019727
	)
	h := uint64(2870177450012600261) ^ (uint64(len(s)) * p1)
	for _, x := range s {
		h = (h ^ uint64(x)) * p2
		h = h<<29 | h>>35
	}
	return h
}

func symbolsEqual(a, b []jstoken.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		// Shared backing slice (raw pre-dedup aliases duplicates).
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repOf picks a cluster's representative unique: the one covering the most
// samples (the modal shape), weighed by final membership counts.
func repOf(u uniqueSet, cluster []int) int {
	return heaviest(cluster, func(ui int) int { return len(u.members[ui]) })
}

// unpackEntry is the cached outcome of unpacking one raw prototype: the
// decoded payload (or the prototype's own script text when not packed) and
// the unpacker that fired ("" if none).
type unpackEntry struct {
	payload string
	method  string
}

// unpackCached unpacks content through the cache under the profile's
// unpacker: a prototype seen on any previous day is never re-unpacked.
func unpackCached(p ingest.Profile, cache *contentcache.Cache, content string) unpackEntry {
	key := contentcache.KeyOf(profiledKind(kindUnpack, p), content)
	if v, ok := cache.Get(key, content); ok {
		return v.(unpackEntry)
	}
	var e unpackEntry
	if res, err := p.Unpack(content); err == nil {
		e = unpackEntry{payload: res.Payload, method: res.Method}
	} else {
		e = unpackEntry{payload: p.ExtractScripts(content)}
	}
	cache.PutSized(key, content, e, len(e.payload))
	return e
}

// fingerprintEntry pairs a cached histogram with the winnow configuration
// that produced it; a hit under a different configuration is a miss.
type fingerprintEntry struct {
	cfg  winnow.Config
	hist winnow.Histogram
}

// FingerprintCached computes (or retrieves) the winnow histogram of text.
// Cached histograms are shared read-only — Overlap never mutates its
// arguments — so previously seen unpacked payloads cost one digest instead
// of a full fingerprint pass. scratch may be nil for one-off calls.
func FingerprintCached(cache *contentcache.Cache, scratch *winnow.Scratch, text string, cfg winnow.Config) winnow.Histogram {
	key := contentcache.KeyOf(kindFingerprint, text)
	if v, ok := cache.Get(key, text); ok {
		if e := v.(fingerprintEntry); e.cfg == cfg {
			return e.hist
		}
	}
	if scratch == nil {
		scratch = new(winnow.Scratch)
	}
	hist := scratch.Fingerprint(text, cfg)
	// ~48 bytes per map entry (key, value, bucket overhead).
	cache.PutSized(key, text, fingerprintEntry{cfg: cfg, hist: hist}, 48*len(hist))
	return hist
}

// tokensCached lexes a document to its full token stream through the
// cache. Only signature-stage sample documents take this path (a bounded
// set per batch), so the retained token slices stay small relative to the
// content budget; siggen reads streams without mutating them, so sharing
// one slice across clusters and runs is safe.
func tokensCached(p ingest.Profile, cache *contentcache.Cache, content string) []jstoken.Token {
	key := contentcache.KeyOf(profiledKind(kindTokens, p), content)
	if v, ok := cache.Get(key, content); ok {
		return v.([]jstoken.Token)
	}
	tokens := p.LexDocument(content)
	// A Token is 32 bytes — the stream dwarfs its key content.
	cache.PutSized(key, content, tokens, 32*len(tokens))
	return tokens
}

// labelClusters unpacks each merged cluster's prototype and labels it by
// best winnow overlap against the corpus. Clusters are independent, so
// unpacking and labeling fan out across the worker pool with per-worker
// winnow scratches; results land by index, keeping the output order
// identical to the serial loop. Unpack results and fingerprints are
// content-cached, so a day dominated by previously seen payloads labels
// almost for free. The second return is the total per-family sweep count
// (Stats.LabelSweeps).
func labelClusters(inputs []Input, u uniqueSet, merged [][]int, corpus *Corpus, cfg Config) ([]Cluster, int) {
	out := make([]Cluster, len(merged))
	workers := max(cfg.Workers, 1)
	parallel.ForEach(len(merged), workers, 1, func(_, mi int) {
		uniques := merged[mi]
		rep := repOf(u, uniques)
		var samples []int
		for _, ui := range uniques {
			samples = append(samples, u.members[ui]...)
		}
		proto := u.members[rep][0]
		cl := Cluster{Samples: samples, Prototype: proto, SignatureIndex: -1}
		unp := unpackCached(cfg.profile(), cfg.Cache, inputs[proto].Content)
		cl.Unpacked = unp.payload
		cl.UnpackMethod = unp.method
		out[mi] = cl
	})
	if corpus == nil {
		return out, 0
	}
	// Differently packed prototypes often unpack to one payload. Each
	// distinct payload is labeled once: two workers racing on the same
	// payload would both miss or one would hit depending on the schedule,
	// and the cache and sweep counters must be a function of the input.
	slot := make(map[string]int, len(out))
	var distinct []string
	for mi := range out {
		if _, ok := slot[out[mi].Unpacked]; !ok {
			slot[out[mi].Unpacked] = len(distinct)
			distinct = append(distinct, out[mi].Unpacked)
		}
	}
	type match struct {
		family  string
		overlap float64
	}
	matches := make([]match, len(distinct))
	scratches := make([]winnow.Scratch, workers)
	sweeps := make([]int, workers)
	parallel.ForEach(len(distinct), workers, 1, func(worker, k int) {
		family, overlap, swept := bestMatchCached(cfg.Cache, &scratches[worker], corpus, distinct[k])
		sweeps[worker] += swept
		matches[k] = match{family: family, overlap: overlap}
	})
	for mi := range out {
		m := matches[slot[out[mi].Unpacked]]
		out[mi].Overlap = m.overlap
		if m.family != "" && m.overlap >= cfg.Threshold(m.family) {
			out[mi].Label = m.family
		}
	}
	total := 0
	for _, s := range sweeps {
		total += s
	}
	return out, total
}

// labelEntry caches per-family corpus verdicts for one unpacked payload.
// Each family's slice is tagged with the content-derived generation it was
// computed against, so a corpus Add to one family invalidates only that
// family's slice — the other families' overlaps are reused and only the
// changed family is re-swept. The winnow configuration guards the whole
// entry; the labeling threshold is deliberately NOT part of it —
// thresholds are applied by the caller per run, so threshold changes never
// read stale decisions.
type labelEntry struct {
	cfg      winnow.Config
	verdicts []FamilyVerdict
}

// bestMatchCached resolves corpus.BestMatch through the cache, family by
// family: a payload seen while a family's corpus slice is unchanged reuses
// that family's cached overlap; only stale families are re-swept. The
// third return counts the sweeps executed (0 on a fully warm hit).
func bestMatchCached(cache *contentcache.Cache, scratch *winnow.Scratch, corpus *Corpus, text string) (string, float64, int) {
	wcfg := corpus.Config()
	key := contentcache.KeyOf(kindLabel, text)
	var prior []FamilyVerdict
	if v, ok := cache.Get(key, text); ok {
		if e := v.(labelEntry); e.cfg == wcfg {
			prior = e.verdicts
		}
	}
	hist := FingerprintCached(cache, scratch, text, wcfg)
	verdicts, family, overlap, swept := corpus.ResolveHist(hist, prior)
	if swept > 0 || prior == nil {
		// ResolveHist snapshots generations and overlaps under one corpus
		// lock, so the entry is internally consistent even if the corpus
		// moved before or after; a concurrent Add at worst makes this
		// entry stale immediately — a future miss, never a wrong answer.
		cache.Put(key, text, labelEntry{cfg: wcfg, verdicts: verdicts})
	}
	return family, overlap, swept
}

// generateSignature runs siggen over (a capped number of) the cluster's
// packed token streams. Token values are materialized here, on demand, for
// just the sampled documents — the tokenize stage no longer retains any
// token slices.
func generateSignature(cl *Cluster, inputs []Input, cfg Config) (siggen.Signature, error) {
	limit := cfg.MaxSignatureSamples
	if limit <= 0 {
		limit = 24
	}
	pick := cl.Samples
	if len(pick) > limit {
		// Spread across the cluster rather than taking a prefix.
		stride := len(pick) / limit
		spaced := make([]int, 0, limit)
		for i := 0; i < len(pick) && len(spaced) < limit; i += stride {
			spaced = append(spaced, pick[i])
		}
		pick = spaced
	}
	// Signature generation is deterministic in (label, picked contents,
	// config), so the result is content-addressed too: a cluster whose
	// sampled documents all recur from a previous day reuses its
	// signature outright. The key lists each picked document's
	// (digest, length) in order — identity at the same strength as the
	// content-addressed store itself.
	var kb strings.Builder
	kb.WriteString(cl.Label)
	for _, si := range pick {
		fmt.Fprintf(&kb, "\x00%016x:%x", contentcache.Digest(inputs[si].Content), len(inputs[si].Content))
	}
	keyContent := kb.String()
	key := contentcache.KeyOf(profiledKind(kindSignature, cfg.profile()), keyContent)
	if v, ok := cfg.Cache.Get(key, keyContent); ok {
		if e := v.(signatureEntry); e.cfg == cfg.Signature {
			return e.sig, nil
		}
	}
	streams := make([][]jstoken.Token, 0, len(pick))
	for _, si := range pick {
		streams = append(streams, tokensCached(cfg.profile(), cfg.Cache, inputs[si].Content))
	}
	sig, err := siggen.Generate(cl.Label, streams, cfg.Signature)
	if err != nil {
		return siggen.Signature{}, fmt.Errorf("cluster with %d samples: %w", len(cl.Samples), err)
	}
	cfg.Cache.Put(key, keyContent, signatureEntry{cfg: cfg.Signature, sig: sig})
	return sig, nil
}

// signatureEntry caches one generated signature with the configuration
// that produced it.
type signatureEntry struct {
	cfg siggen.Config
	sig siggen.Signature
}
