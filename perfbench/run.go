package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"kizzle/gateway"
)

const (
	// setupRepeats: set-up runs this many times and setup_s is the median.
	setupRepeats = 5
	lowRate      = 1000.0
	highRate     = 8000.0
	// publishEvery paces the publishes made while the fixed-rate phases
	// run, so replicas hot-swap under load.
	publishEvery = 250 * time.Millisecond
	// fixedShare of the serving time goes to each fixed-rate phase; the
	// rate ladder gets the rest.
	fixedShare = 0.22
	rungDur    = 750 * time.Millisecond
	// phaseWindow is the window of the fixed-rate phases' windowed p99.
	phaseWindow = time.Second
	ladderStart = 4000.0
	// minServe is the least time the serving phases get.
	minServe = 2 * time.Second
)

// env is one workload's live state.
type env struct {
	p    *plan
	seed int64
	exp  expectation
	cs   *compilers
	fl   *fleet
	tr   *tracer
	t    tally
	// sets holds the latest compile of each unit.
	sets map[int]compiled

	setups     []time.Duration
	compiles   []compiled
	publishes  []publishResult
	kitSeen    int64
	kitBlocked int64
	benignFP   int64
	// Kit documents of the serving pool blocked under every compiled set,
	// and benign ones blocked.
	poolKitSeen, poolKitBlocked, poolBenignFP int64
	// peakRSS is taken before the rate ladder, whose top rungs would
	// otherwise set it.
	peakRSS float64

	low, high      loadResult
	served         servedCounts
	clientErrs     atomic.Int64 // errors reported by sigdb watch clients
	best           float64
	rungs          []rung
	truncated      bool
	serveStart     time.Time
	serveWall      time.Duration
	memBefore      runtime.MemStats
	memAfter       runtime.MemStats
	lexDocs        map[string][]string // profile -> distinct documents
	lexJS, lexWK   float64
	currentUnit    int
	nextPublishIdx int
}

// servedCounts are updated by concurrent request goroutines.
type servedCounts struct {
	attempted, failed atomic.Int64
}

// run measures one workload at one seed; a traced run writes its spans
// under root/.bench_build/traces.
func run(workload string, seed int64, measure time.Duration, traced bool, root string) (*result, error) {
	variant := variantOf(seed)
	exp, err := loadExpected(workload, variant)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, exp: exp, sets: map[int]compiled{}}
	if traced {
		e.tr = newTracer()
	}
	runtime.ReadMemStats(&e.memBefore)
	err = e.setup(workload, variant)
	if err == nil {
		start := time.Now()
		err = e.compilePhase(time.Duration(e.p.compileShare * float64(measure)))
		if err == nil {
			err = e.publishPhase()
		}
		if err == nil {
			// A compile loop that overran the run still leaves the
			// serving phases time to measure something.
			err = e.servePhase(max(measure-time.Since(start), minServe))
		}
	}
	if e.fl != nil {
		e.fl.close()
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&e.memAfter)

	// Every error a watch client reported is a failed operation.
	n := e.clientErrs.Load()
	if n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %d sigdb client errors\n", n)
	}
	res := &result{
		Attempted: e.t.attempted + e.served.attempted.Load() + n,
		Failed:    e.t.failed + e.served.failed.Load() + n,
	}
	res.Correct = res.Failed == 0
	if traced {
		e.measureLex()
		res.Metrics = e.layerMetrics()
		if err := e.tr.write(spanPath(root, workload, seed)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else {
		res.Metrics = e.endToEndMetrics()
	}
	e.summary(res)
	return res, nil
}

// setup builds the workload's inputs, runs the training compile and
// starts the fleet on its set — setupRepeats times, keeping the last.
func (e *env) setup(workload string, variant int) error {
	for k := 0; k < setupRepeats; k++ {
		if e.fl != nil {
			e.fl.close()
			e.fl = nil
		}
		// Collect the previous repeat's garbage, so that the repeats do
		// not set the peak resident set.
		runtime.GC()
		t0 := time.Now()
		p, err := buildPlan(workload, variant)
		if err != nil {
			return err
		}
		cs := &compilers{}
		c0, err := compileUnit(cs, p.units[0])
		if err != nil {
			return err
		}
		fl := startFleet(e.tr, &e.clientErrs)
		_, perr := fl.publish(c0.sigs, 0)
		e.setups = append(e.setups, time.Since(t0))
		e.p, e.cs, e.fl = p, cs, fl
		e.checkSet(0, c0)
		e.t.check(perr == nil, "initial publish: %v", perr)
		e.sets[0] = c0
		e.currentUnit = 0
	}
	return nil
}

// compilePhase runs the compile loop round the plan's cycle until
// budget is spent, publishing each set to the idle fleet and vetting the
// day's held-out documents, if the plan has them.
func (e *env) compilePhase(budget time.Duration) error {
	start := time.Now()
	for i := 0; ; i++ {
		// Stop on budget at the end of a cycle, so every unit compiles
		// equally often (units differ in cost) and every unit's set
		// exists for the serving phases.
		if i > 0 && i%len(e.p.cycle) == 0 && time.Since(start) >= budget {
			return nil
		}
		u := e.p.cycle[i%len(e.p.cycle)]
		t0 := time.Now()
		c, err := compileUnit(e.cs, e.p.units[u])
		if err != nil {
			return err
		}
		e.traceCompile(t0, c)
		e.compiles = append(e.compiles, c)
		e.sets[u] = c
		e.checkSet(u, c)
		if err := e.publish(u, false); err != nil {
			return err
		}
		if held := e.p.units[u].heldout; len(held) > 0 {
			e.vetHeldout(u, held)
		}
	}
}

// idlePublishes is how many publishes publishPhase makes.
const idlePublishes = 40

// publishPhase publishes the compiled sets in cycle order to the idle
// fleet: publish-to-armed samples spread evenly over every unit's set.
// Publishing the set already served changes nothing and is not counted.
func (e *env) publishPhase() error {
	for i := 0; i < idlePublishes; i++ {
		if err := e.publish(e.p.cycle[i%len(e.p.cycle)], false); err != nil {
			return err
		}
	}
	return nil
}

// publish deploys unit u's latest set and records the outcome; loaded
// marks a publish made while requests are being served.
func (e *env) publish(u int, loaded bool) error {
	pr, err := e.fl.publish(e.sets[u].sigs, u)
	pr.loaded = loaded
	if err != nil && !errors.Is(err, errNotArmed) {
		return err
	}
	e.t.check(err == nil, "publish of unit %d: %v", u, err)
	if pr.changed && err == nil {
		e.publishes = append(e.publishes, pr)
	}
	e.currentUnit = u
	return nil
}

// checkSet checks a compiled set against the pinned digest of unit u.
func (e *env) checkSet(u int, c compiled) {
	want := expectAt(e.exp.Sets, u)
	e.t.check(c.digest == want, "unit %d: set digest %s, expected %s", u, c.digest, want)
}

// verdictOK reports whether decision d for pool document j matches the
// reference verdict of a set the replica served while the request was
// in flight. The replica's scanner swap and version stamp are two
// steps, so a request may see the set being installed: the sets of
// versions lo through hi+1 are all acceptable.
func verdictOK(setFor func(int64) (int, bool), refs map[int][]gateway.Decision, j int, d gateway.Decision, lo, hi int64) bool {
	for v := lo; v <= hi+1; v++ {
		if u, known := setFor(v); known && refs[u][j] == d {
			return true
		}
	}
	return false
}

// vetHeldout vets the day's held-out documents in one batch through a
// replica's deployed Vetter and checks the verdicts.
func (e *env) vetHeldout(u int, held []document) {
	views := make([][]byte, len(held))
	for i, d := range held {
		views[i] = d.content
	}
	ds := e.fl.reps[0].vetter.VetAllBytes(views)
	want := expectAt(e.exp.Heldout, u)
	got := verdictDigest(ds)
	e.t.check(got == want, "unit %d: held-out verdict digest %s, expected %s", u, got, want)
	for i, d := range ds {
		if held[i].kit {
			e.kitSeen++
			if d.Blocked {
				e.kitBlocked++
			}
		} else if d.Blocked {
			e.benignFP++
		}
	}
}

// traceCompile records one Process span tree: a root per compile unit
// and children laid out from the returned pipeline.Stats stage times.
func (e *env) traceCompile(start time.Time, c compiled) {
	if e.tr == nil {
		return
	}
	root := e.tr.newID()
	at := start
	for _, st := range c.stats {
		for _, stage := range []struct {
			name string
			d    time.Duration
		}{
			{"pipeline.tokenize", st.Tokenize},
			{"pipeline.cluster_wait", st.Cluster},
			{"pipeline.reduce", st.Reduce},
			{"pipeline.label", st.Label},
			{"pipeline.signature", st.Signature},
		} {
			e.tr.add(stage.name, at, at.Add(stage.d), root, -1)
			at = at.Add(stage.d)
		}
	}
	e.tr.record(root, "compile", start, start.Add(c.wall), -1, -1)
}

// picker chooses the pool document for request id: uniform, or zipf
// over a seed-shuffled popularity order.
type picker struct {
	seed int64
	n    int
	cdf  []float64
	rank []int
}

func newPicker(p *plan, seed int64) *picker {
	pk := &picker{seed: seed, n: len(p.pool)}
	if p.zipf > 0 {
		pk.rank = rand.New(rand.NewSource(seed)).Perm(pk.n)
		pk.cdf = make([]float64, pk.n)
		sum := 0.0
		for k := 0; k < pk.n; k++ {
			sum += 1 / math.Pow(float64(k+1), p.zipf)
			pk.cdf[k] = sum
		}
		for k := range pk.cdf {
			pk.cdf[k] /= sum
		}
	}
	return pk
}

// mix is splitmix64: a stateless per-request random source.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (pk *picker) pick(id int64) int {
	r := mix(uint64(pk.seed)*0x100000001b3 ^ uint64(id))
	if pk.cdf == nil {
		return int(r % uint64(pk.n))
	}
	u := float64(r>>11) / (1 << 53)
	return pk.rank[sort.SearchFloat64s(pk.cdf, u)%pk.n]
}

// withNonce appends a per-request HTML comment, making the bytes unique.
func withNonce(doc []byte, seed, id int64) []byte {
	out := make([]byte, 0, len(doc)+48)
	out = append(out, doc...)
	out = append(out, "\n<!-- req "...)
	out = strconv.AppendInt(out, seed, 16)
	out = append(out, '-')
	out = strconv.AppendInt(out, id, 16)
	return append(out, " -->\n"...)
}

// servePhase drives open-loop admission over the plan's pool: the low
// and high fixed rates (serve workloads publish the compiled sets in
// turn every publishEvery meanwhile), then the rate ladder.
func (e *env) servePhase(budget time.Duration) error {
	// Serving replicas do not hold the compiler: release it and the
	// compile inputs, so their heap is not marked by every collection.
	e.cs = nil
	if e.tr != nil {
		e.collectLexDocs()
	}
	for i := range e.p.units {
		e.p.units[i].js, e.p.units[i].wk = nil, nil
	}
	refs := make(map[int][]gateway.Decision, len(e.sets))
	for u, c := range e.sets {
		ds, err := referenceVerdicts(c.sigs, e.p.pool)
		if err != nil {
			return err
		}
		want := expectAt(e.exp.Pool, u)
		got := verdictDigest(ds)
		e.t.check(got == want, "unit %d: pool verdict digest %s, expected %s", u, got, want)
		refs[u] = ds
		for j, d := range ds {
			switch {
			case e.p.pool[j].kit:
				e.poolKitSeen++
				if d.Blocked {
					e.poolKitBlocked++
				}
			case d.Blocked:
				e.poolBenignFP++
			}
		}
	}
	order := e.p.cycle
	for i, u := range order {
		if u == e.currentUnit {
			e.nextPublishIdx = i + 1
		}
	}
	pk := newPicker(e.p, e.seed)
	var base int64
	do := func(i int) {
		id := base + int64(i)
		j := pk.pick(id)
		doc := e.p.pool[j].content
		if e.p.nonce {
			doc = withNonce(doc, e.seed, id)
		}
		d, lo, hi := e.fl.serve(id, doc)
		e.served.attempted.Add(1)
		if !verdictOK(e.fl.setFor, refs, j, d, lo, hi) {
			if e.served.failed.Add(1) <= 20 {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL request %d (pool doc %d, versions %d-%d): got %+v\n", id, j, lo, hi, d)
			}
		}
	}
	fixed := time.Duration(fixedShare * float64(budget))
	e.serveStart = time.Now()
	// Held-out vetting in the compile loop went through the same
	// scanners; the serving metrics count from here.
	for _, r := range e.fl.reps {
		r.scanBase = scanCounts{r.scan.calls.Load(), r.scan.docs.Load(), r.scan.busyNs.Load()}
	}
	var err error
	runtime.GC()
	e.low, err = e.withPublishes(order, func() loadResult { return openLoop(lowRate, fixed, do) })
	if err != nil {
		return err
	}
	base += int64(len(e.low.lat))
	runtime.GC()
	e.high, err = e.withPublishes(order, func() loadResult { return openLoop(highRate, fixed, do) })
	if err != nil {
		return err
	}
	base += int64(len(e.high.lat))
	e.serveWall = time.Since(e.serveStart)
	e.peakRSS = peakRSSMB()
	ladderDo := func(i int) { do(int(base) + i) }
	e.best, e.rungs, e.truncated = ladder(ladderStart, rungDur, budget-time.Since(e.serveStart)-100*time.Millisecond, ladderDo)
	return nil
}

// withPublishes runs load while publishing the next set in order every
// publishEvery from a second goroutine, if the plan publishes under load.
func (e *env) withPublishes(order []int, load func() loadResult) (loadResult, error) {
	if !e.p.publishUnderLoad {
		return load(), nil
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		tick := time.NewTicker(publishEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-tick.C:
				u := order[e.nextPublishIdx%len(order)]
				e.nextPublishIdx++
				if err := e.publish(u, true); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	res := load()
	close(stop)
	return res, <-done
}
