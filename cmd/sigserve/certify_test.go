// Certification battery: the dual-path publish differential (every
// supported pair of diverse execution paths must agree byte for byte on
// the published set) and the quarantine drill (a worker returning
// well-formed but wrong clustering results must be caught by the
// verification compile, quarantined with both artifacts on the audit
// log, and must never move the serving version).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"kizzle"
	"kizzle/internal/pipeline"
	"kizzle/internal/shardcoord"
	"kizzle/sigdb"
	"kizzle/synth"
)

// referenceDigest compiles the corpus once through the plain in-process
// path and returns the published set's content digest — the value every
// certified path pair must reproduce.
func referenceDigest(t *testing.T, samplesDir, knownDir string) string {
	t.Helper()
	store := sigdb.New()
	pub, err := newPublisher(store, samplesDir, knownDir, "", pathSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.recompile(); err != nil {
		t.Fatal(err)
	}
	digest, err := store.Snapshot().SetDigest()
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// TestCertificationDifferential runs a certified publish over every
// path-diversity axis — in-process vs fleet at 1/2/4 shards, stream vs
// batch dispatch on the same fleet, permuted vs canonical schedule, and
// affinity vs none — and requires each pair to agree bit-identically
// with each other and with the in-process reference, landing version 1
// with a signed attestation that records both path descriptors.
func TestCertificationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the synthetic day twice per case")
	}
	samplesDir, knownDir := writeCorpus(t)
	urls := startWorkerFleet(t, 4)
	want := referenceDigest(t, samplesDir, knownDir)

	cases := []struct {
		name    string
		primary pathSpec
		verify  pathSpec
	}{
		{"fleet1_vs_inprocess", pathSpec{shardURLs: urls[:1]}, pathSpec{dispatch: "batch", seed: 11}},
		{"fleet2_vs_inprocess", pathSpec{shardURLs: urls[:2]}, pathSpec{dispatch: "batch", seed: 11}},
		{"fleet4_vs_inprocess", pathSpec{shardURLs: urls[:4]}, pathSpec{dispatch: "batch", seed: 11}},
		{"stream_vs_batch", pathSpec{shardURLs: urls[:2]}, pathSpec{shardURLs: urls[:2], dispatch: "batch", noAffinity: true, seed: 11}},
		{"permuted_vs_canonical", pathSpec{shardURLs: urls[:2], seed: 99}, pathSpec{shardURLs: urls[:2]}},
		{"affinity_vs_none", pathSpec{shardURLs: urls[:2]}, pathSpec{shardURLs: urls[:2], noAffinity: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := sigdb.New()
			store.SetCertKey([]byte("differential-key"))
			pub, err := newPublisher(store, samplesDir, knownDir, "", tc.primary, &certConfig{verify: tc.verify})
			if err != nil {
				t.Fatal(err)
			}
			st, err := pub.recompile()
			if err != nil {
				t.Fatalf("certified recompile (%s vs %s): %v",
					tc.primary.descriptor(), tc.verify.descriptor(), err)
			}
			if st.Version != 1 || !st.Changed {
				t.Fatalf("publish landed v%d changed=%v, want v1 true", st.Version, st.Changed)
			}
			att, ok := store.Attestation(1)
			if !ok {
				t.Fatal("certified publish left no attestation")
			}
			if att.SetDigest != want {
				t.Errorf("published digest %s, in-process reference %s — paths disagree with the reference", att.SetDigest, want)
			}
			if att.Primary != tc.primary.descriptor() || att.Verify != tc.verify.descriptor() {
				t.Errorf("attestation descriptors %v/%v, want %v/%v",
					att.Primary, att.Verify, tc.primary.descriptor(), tc.verify.descriptor())
			}
			if !att.VerifyMAC([]byte("differential-key")) {
				t.Error("attestation not signed under the store's cert key")
			}
			if got := pub.metrics()["certified"].(int64); got != 1 {
				t.Errorf("certified metric = %d, want 1", got)
			}
		})
	}
}

// TestVerifyPathSpec pins the flag-level derivation of the verification
// path from the primary: dispatch always flips, fanout (output-sensitive)
// is always pinned, fleet mode requires shards and inverts affinity, and
// unknown modes are rejected.
func TestVerifyPathSpec(t *testing.T) {
	fleet := pathSpec{shardURLs: []string{"http://a", "http://b"}, fanout: 3}
	v, err := verifyPathSpec(fleet, "inprocess", 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.mode() != "in-process" || v.dispatch != "batch" || v.fanout != 3 || v.seed != 7 {
		t.Errorf("inprocess verify spec = %+v", v)
	}
	if got := v.descriptor().String(); got != "in-process/batch/seed=7" {
		t.Errorf("descriptor = %q", got)
	}

	v, err = verifyPathSpec(fleet, "fleet", 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.mode() != "fleet" || v.dispatch != "batch" || !v.noAffinity {
		t.Errorf("fleet verify spec = %+v", v)
	}
	if got := fleet.descriptor().String(); got != "fleet/2/stream/affinity" {
		t.Errorf("primary descriptor = %q", got)
	}

	batchPrimary := pathSpec{shardURLs: fleet.shardURLs, dispatch: "batch"}
	if v, err = verifyPathSpec(batchPrimary, "fleet", 0); err != nil || v.dispatch != "stream" {
		t.Errorf("batch primary must verify over stream dispatch: %+v err=%v", v, err)
	}

	if _, err := verifyPathSpec(pathSpec{}, "fleet", 0); err == nil {
		t.Error("fleet verification without shards must fail")
	}
	if _, err := verifyPathSpec(fleet, "remote", 0); err == nil {
		t.Error("unknown verification mode must fail")
	}
}

// tamperableWorker wraps a real shard worker and, when armed, answers
// /partition with a fabricated result: every sequence folded into one
// giant cluster. The response is well-formed — indices cover the
// partition exactly once, the representative is a member — so it passes
// the coordinator's wire validation; only a recompile through an
// independent path can tell it lied. Every other endpoint (edge sweeps,
// resident-set fills) passes through to the real worker.
type tamperableWorker struct {
	real  http.Handler
	armed atomic.Bool
	// lies counts fabricated answers; liedEnough closes when it reaches
	// effectiveLies.
	lies       atomic.Int64
	liedEnough chan struct{}
}

// effectiveLies is how many fabricated partitions guarantee the drill a
// detectable lie. The tampered day's compile cuts 8 partitions, and
// folding all of one into a single cluster changes the published set for
// 6 of them; any 3 therefore include one that does.
const effectiveLies = 3

func (tw *tamperableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !tw.armed.Load() || r.URL.Path != "/partition" {
		tw.real.ServeHTTP(w, r)
		return
	}
	var req shardcoord.PartitionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := len(req.Partition.Seqs)
	if n == 0 {
		http.Error(w, "empty partition", http.StatusBadRequest)
		return
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var resp shardcoord.PartitionResponse
	if req.PreReduce {
		resp.Reduced = &pipeline.ReducedPartition{Clusters: [][]int{all}, Reps: []int{0}, Noise: []int{}}
	} else {
		resp.Clusters = [][]int{all}
		resp.Noise = []int{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
	if tw.lies.Add(1) == effectiveLies {
		close(tw.liedEnough)
	}
}

// TestCertificationQuarantine is the corrupted-worker drill, the
// acceptance scenario of the certification layer end to end:
//
//  1. a clean certified publish lands v1;
//  2. one of the two workers starts answering /partition with fabricated
//     (but wire-valid) clusters while the corpus gains a day — the
//     primary fleet compile is now wrong, the in-process verification
//     compile is not, so the publish quarantines: v1 keeps serving, both
//     artifacts and the disagreement land on the persistent audit log,
//     and a strict client polling the store sees no update at all;
//  3. the worker heals and the next recompile publishes v2, attested.
func TestCertificationQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the synthetic day several times")
	}
	samplesDir, knownDir := writeCorpus(t)

	tamper := &tamperableWorker{real: shardcoord.NewWorker().Handler(), liedEnough: make(chan struct{})}
	tamperSrv := httptest.NewServer(tamper)
	t.Cleanup(tamperSrv.Close)
	// While the tamper is armed, the honest worker holds its first
	// partition until the tampered one has fabricated effectiveLies
	// answers, so the drill does not depend on how the pull queue splits
	// the units between the two.
	honest := httptest.NewServer(holdFirstPartition(shardcoord.NewWorker().Handler(),
		tamper.armed.Load, tamper.liedEnough))
	t.Cleanup(honest.Close)
	urls := []string{tamperSrv.URL, honest.URL}

	storePath := filepath.Join(t.TempDir(), "sigs.json")
	store, err := sigdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("quarantine-drill-key")
	store.SetCertKey(key)
	primary := pathSpec{shardURLs: urls}
	verify := pathSpec{dispatch: "batch", seed: defaultCertSeed}
	pub, err := newPublisher(store, samplesDir, knownDir, "", primary, &certConfig{verify: verify})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: clean certified publish.
	st, err := pub.recompile()
	if err != nil {
		t.Fatalf("clean certified recompile: %v", err)
	}
	if st.Version != 1 || !st.Changed {
		t.Fatalf("clean publish landed v%d changed=%v, want v1 true", st.Version, st.Changed)
	}
	att1, ok := store.Attestation(1)
	if !ok {
		t.Fatal("clean publish left no attestation")
	}
	v1Digest, err := store.Snapshot().SetDigest()
	if err != nil {
		t.Fatal(err)
	}

	// A strict replica deploys v1.
	mux := http.NewServeMux()
	mux.Handle("/signatures", store.Handler())
	mux.Handle("/attest", store.AttestHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	replica := &sigdb.Client{URL: srv.URL + "/signatures", Strict: true, AttestURL: srv.URL + "/attest", CertKey: key}
	ctx := context.Background()
	if snap, ok, err := replica.Fetch(ctx); err != nil || !ok || snap.Version != 1 {
		t.Fatalf("strict replica fetch of v1: ok=%v err=%v", ok, err)
	}

	// Phase 2: arm the tamper and move the corpus forward a day, so the
	// next cycle must genuinely re-cluster (and would publish v2 if both
	// paths agreed).
	tamper.armed.Store(true)
	day := synth.Date(time.August, 6)
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 20
	stream, err := synth.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stream.Day(day) {
		if err := os.WriteFile(filepath.Join(samplesDir, s.ID+".html"), []byte(s.Content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := pub.recompile(); err == nil {
		t.Fatal("tampered recompile published — the fabricated clusters were not caught")
	} else if !errors.Is(err, errQuarantined) {
		t.Fatalf("tampered recompile failed with %v, want errQuarantined", err)
	}

	// The serving version never moved and the set is bit-identical.
	if v := store.Version(); v != 1 {
		t.Fatalf("serving version moved to %d during quarantine", v)
	}
	if d, err := store.Snapshot().SetDigest(); err != nil || d != v1Digest {
		t.Fatalf("serving set changed during quarantine: %s vs %s (err=%v)", d, v1Digest, err)
	}
	if got := pub.metrics()["quarantined"].(int64); got != 1 {
		t.Errorf("quarantined metric = %d, want 1", got)
	}

	// The strict replica sees no update at all — the quarantined set was
	// never installed, so the poll is a 304 and v1 keeps serving.
	if _, ok, err := replica.Fetch(ctx); err != nil || ok {
		t.Fatalf("replica poll during quarantine: ok=%v err=%v, want quiet 304", ok, err)
	}
	resp, err := http.Get(srv.URL + "/attest?version=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/attest?version=1 returned %d during quarantine, want 200", resp.StatusCode)
	}

	// Both artifacts and the disagreement are recoverable from the audit
	// log — including after a restart, via the persisted JSONL file.
	reopened, err := sigdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	recs := reopened.AuditRecords()
	if len(recs) != 2 || recs[0].Kind != sigdb.AuditAttest || recs[1].Kind != sigdb.AuditQuarantine {
		t.Fatalf("audit log: %d records, want attest then quarantine", len(recs))
	}
	q := recs[1].Quarantine
	if q.ServingVersion != 1 {
		t.Errorf("quarantine records serving version %d, want 1", q.ServingVersion)
	}
	if q.PrimaryDigest == q.VerifyDigest {
		t.Error("quarantine records identical digests for a disagreement")
	}
	var primarySigs, verifySigs []kizzle.Signature
	if err := json.Unmarshal(q.PrimarySet, &primarySigs); err != nil {
		t.Fatalf("quarantined primary artifact unparseable: %v", err)
	}
	if err := json.Unmarshal(q.VerifySet, &verifySigs); err != nil {
		t.Fatalf("quarantined verification artifact unparseable: %v", err)
	}
	pd, err := sigdb.SetDigest(primarySigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := sigdb.SetDigest(verifySigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pd != q.PrimaryDigest || vd != q.VerifyDigest {
		t.Error("embedded artifacts do not hash to the recorded digests")
	}

	// Phase 3: the worker heals; the next cycle certifies and publishes.
	tamper.armed.Store(false)
	st, err = pub.recompile()
	if err != nil {
		t.Fatalf("post-recovery recompile: %v", err)
	}
	if st.Version != 2 || !st.Changed {
		t.Fatalf("post-recovery publish landed v%d changed=%v, want v2 true", st.Version, st.Changed)
	}
	att2, ok := store.Attestation(2)
	if !ok {
		t.Fatal("post-recovery publish left no attestation")
	}
	// The healed publish must match what the honest verification path
	// computed during the quarantine — same corpus, same honest output.
	if att2.SetDigest != vd {
		t.Errorf("post-recovery digest %s, quarantined verification artifact %s", att2.SetDigest, vd)
	}
	if att1.SetDigest == att2.SetDigest {
		t.Error("day-2 corpus published the day-1 set")
	}
	if snap, ok, err := replica.Fetch(ctx); err != nil || !ok || snap.Version != 2 {
		t.Fatalf("strict replica fetch of v2: ok=%v err=%v", ok, err)
	}
}
