package main

import (
	"sync"
	"testing"
	"time"

	"kizzle"
	"kizzle/gateway"
)

// compileDailyUnit0 compiles the training unit of daily variant 0.
func compileDailyUnit0(t *testing.T) (*plan, compiled) {
	t.Helper()
	p, err := buildPlan("daily", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compileUnit(&compilers{}, p.units[0])
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

// A set that differs from the pinned one — here, one signature dropped —
// is a failed operation.
func TestCorruptedSetIsCounted(t *testing.T) {
	exp, err := loadExpected("daily", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, c := compileDailyUnit0(t)
	e := &env{exp: exp}
	e.checkSet(0, c)
	if e.t.attempted != 1 || e.t.failed != 0 {
		t.Fatalf("pinned set: attempted %d failed %d, want 1/0", e.t.attempted, e.t.failed)
	}
	if len(c.sigs) < 2 {
		t.Fatalf("unit 0 compiled %d signatures; need two to corrupt one", len(c.sigs))
	}
	c.sigs = c.sigs[1:]
	c.digest = setDigest(c.sigs)
	e.checkSet(0, c)
	if e.t.attempted != 2 || e.t.failed != 1 {
		t.Fatalf("corrupted set: attempted %d failed %d, want 2/1", e.t.attempted, e.t.failed)
	}
}

// A served decision that differs from the reference verdict of every
// set in flight is a failure; the matching one is not.
func TestFlippedVerdictIsCounted(t *testing.T) {
	p, c := compileDailyUnit0(t)
	ref, err := referenceVerdicts(c.sigs, p.pool)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[int][]gateway.Decision{0: ref}
	setFor := func(v int64) (int, bool) { return 0, v == 1 }
	for j, d := range ref {
		if !verdictOK(setFor, refs, j, d, 1, 1) {
			t.Fatalf("pool doc %d: reference verdict rejected", j)
		}
		flipped := gateway.Decision{Blocked: !d.Blocked}
		if flipped.Blocked {
			flipped.Family = "Angler"
		}
		if verdictOK(setFor, refs, j, flipped, 1, 1) {
			t.Fatalf("pool doc %d: flipped verdict %+v accepted", j, flipped)
		}
	}
	// The pinned digest of the pool verdicts catches a flip as well.
	exp, err := loadExpected("daily", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictDigest(ref); got != exp.Pool[0] {
		t.Fatalf("pool verdict digest %s, pinned %s", got, exp.Pool[0])
	}
	ref[0].Blocked = !ref[0].Blocked
	if verdictDigest(ref) == exp.Pool[0] {
		t.Fatal("flipped verdict kept the pinned digest")
	}
}

// The traced scanner must keep the Vetter and Admitter on the batch
// byte path: every scan arrives as ScanAllBytes.
func TestTracedScannerKeepsBatchPath(t *testing.T) {
	p, c := compileDailyUnit0(t)
	m, err := kizzle.NewMatcher(c.sigs)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var stats scanStats
	v := gateway.NewVetter(&tracedScanner{m: m, tr: tr, stats: &stats})
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = p.pool[i].content
	}
	traced := v.VetAllBytes(docs)
	want := gateway.NewVetter(m).VetAllBytes(docs)
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("doc %d: traced %+v, untraced %+v", i, traced[i], want[i])
		}
	}
	a := gateway.NewAdmitter(v, batchDocs, batchWait)
	var wg sync.WaitGroup
	for _, d := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.VetBytes(d)
		}()
	}
	wg.Wait()
	a.Close()
	for _, st := range tr.selfTimes() {
		if st.Name != "kizzle.scan_batch" {
			t.Errorf("scan reached the wrapper as %q, want only kizzle.scan_batch", st.Name)
		}
	}
	if stats.calls.Load() < 2 || stats.docs.Load() < int64(2*len(docs)) {
		t.Fatalf("wrapper saw %d calls / %d docs", stats.calls.Load(), stats.docs.Load())
	}
}

// Traced and untraced runs must produce the pinned digests and
// verdicts, so tracing cannot change what the program outputs.
func TestTracedRunKeepsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload twice")
	}
	for _, traced := range []bool{false, true} {
		res, err := run("daily", 3, 2*time.Second, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct %v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// stubScanner takes 1 ms per call, one call at a time: a server with a
// capacity just under 1,000 requests per second.
type stubScanner struct{ mu sync.Mutex }

func (s *stubScanner) Scan(string) []kizzle.Match {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond)
	return nil
}

// Offered above capacity, an open loop must show latency growing with
// run time: requests queue instead of the generator slowing down.
func TestOpenLoopCountsQueueing(t *testing.T) {
	v := gateway.NewVetter(&stubScanner{})
	do := func(int) { v.VetBytes([]byte("doc")) }
	short := openLoop(1500, 300*time.Millisecond, do)
	long := openLoop(1500, 900*time.Millisecond, do)
	ps, pl := quantile(short.lat, 0.5), quantile(long.lat, 0.5)
	if pl < 2*ps {
		t.Fatalf("median latency %v over 0.9s vs %v over 0.3s: queueing is hidden", pl, ps)
	}
	if v := judge(long); v.pass {
		t.Fatalf("overloaded rung passed: %+v", v)
	}
}

// A rung the generator ran late on is invalid, however good the
// latencies it recorded.
func TestLateRungIsInvalid(t *testing.T) {
	r := loadResult{rate: 1000, dur: time.Second, completedInWindow: 1000}
	for i := 0; i < 1000; i++ {
		r.lat = append(r.lat, time.Millisecond)
		r.late = append(r.late, 2*lateLimit)
	}
	if v := judge(r); v.valid || v.pass {
		t.Fatalf("late rung judged valid=%v pass=%v", v.valid, v.pass)
	}
	for i := range r.late {
		r.late[i] = 0
	}
	if v := judge(r); !v.valid || !v.pass {
		t.Fatalf("on-time rung judged valid=%v pass=%v", v.valid, v.pass)
	}
}
