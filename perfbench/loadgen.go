package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// latencyLimit is the admission p99 a ladder rung must meet.
	latencyLimit = 10 * time.Millisecond
	// lateLimit bounds the generator's own p99 lateness: a rung whose
	// requests left later than this is invalid, not slow.
	lateLimit = 3 * time.Millisecond
	// minAchieved is the share of offered requests that must complete
	// inside the rung.
	minAchieved = 0.99
)

// loadResult is one open-loop run at a fixed offered rate.
type loadResult struct {
	rate float64
	dur  time.Duration
	// lat is each request's latency from its due time; late is how far
	// after its due time the generator dispatched it.
	lat, late []time.Duration
	// completedInWindow counts requests finished before the run's end.
	completedInWindow int64
	inflightMax       int64
	// inflightFirst and inflightLast are the mean in-flight counts over
	// the first and last quarter of the run.
	inflightFirst, inflightLast float64
}

// openLoop offers rate requests per second for dur. Request i is due at
// start + i/rate and is dispatched then whether or not earlier requests
// have finished, so a stall queues later requests instead of slowing
// the generator down; latency counts from the due time. do must be safe
// for concurrent use.
func openLoop(rate float64, dur time.Duration, do func(i int)) loadResult {
	n := int(rate * dur.Seconds())
	res := loadResult{rate: rate, dur: dur, lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var inflight, inWindow atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	dueOf := func(i int) time.Time { return start.Add(time.Duration(float64(i) * 1e9 / rate)) }
	var sumFirst, sumLast float64
	var nFirst, nLast int
	for i := 0; i < n; {
		now := time.Now()
		if wait := dueOf(i).Sub(now); wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; i < n; i++ {
			due := dueOf(i)
			if due.After(now) {
				break
			}
			res.late[i] = now.Sub(due)
			inflight.Add(1)
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				do(i)
				t := time.Now()
				res.lat[i] = t.Sub(due)
				if !t.After(end) {
					inWindow.Add(1)
				}
				inflight.Add(-1)
			}(i, due)
		}
		cur := inflight.Load()
		res.inflightMax = max(res.inflightMax, cur)
		switch frac := now.Sub(start).Seconds() / dur.Seconds(); {
		case frac < 0.25:
			sumFirst += float64(cur)
			nFirst++
		case frac >= 0.75:
			sumLast += float64(cur)
			nLast++
		}
	}
	wg.Wait()
	res.completedInWindow = inWindow.Load()
	if nFirst > 0 {
		res.inflightFirst = sumFirst / float64(nFirst)
	}
	if nLast > 0 {
		res.inflightLast = sumLast / float64(nLast)
	}
	return res
}

// quantile returns the q-quantile of ds (nearest rank), leaving ds as
// it is.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q * float64(len(ds)))
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

// windowedQuantile splits a run's per-request durations (in due order)
// into consecutive windows of win and returns the median over windows
// of each window's q-quantile. One stall — a collection, a neighbour's
// burst — then moves one window, not the reported tail.
func windowedQuantile(ds []time.Duration, rate float64, win time.Duration, q float64) time.Duration {
	per := int(rate * win.Seconds())
	if per < 1 || len(ds) <= per {
		return quantile(ds, q)
	}
	var qs []float64
	for lo := 0; lo+per <= len(ds); lo += per {
		qs = append(qs, float64(quantile(ds[lo:lo+per], q)))
	}
	return time.Duration(median(qs))
}

// verdict is how a rung is judged.
type verdict struct {
	valid, pass  bool
	p99, lateP99 time.Duration
	achieved     float64 // share of offered requests completed in window
	backlog      bool
}

// rungWindow is the window of the rung's windowed p99s.
const rungWindow = 250 * time.Millisecond

// judge applies the ladder's three conditions — p99 within the limit,
// achieved rate at least 99% of offered, no growing in-flight backlog —
// after checking that the generator itself kept to schedule.
func judge(r loadResult) verdict {
	v := verdict{
		p99:     windowedQuantile(r.lat, r.rate, rungWindow, 0.99),
		lateP99: windowedQuantile(r.late, r.rate, rungWindow, 0.99),
	}
	if n := len(r.lat); n > 0 {
		v.achieved = float64(r.completedInWindow) / float64(n)
	}
	// A queue that keeps growing shows as in-flight counts rising from
	// the first quarter of the run to the last.
	v.backlog = r.inflightLast > 2*r.inflightFirst+2*batchDocs
	v.valid = v.lateP99 <= lateLimit
	v.pass = v.valid && v.p99 <= latencyLimit && v.achieved >= minAchieved && !v.backlog
	return v
}

// rung is one step of the rate ladder.
type rung struct {
	rate float64
	verdict
}

// ladder raises the offered rate by 1.5x from first until a rung fails,
// then bisects (geometrically, three times) between the last passing
// and the first failing rate. It returns the highest passing rate and
// every rung run, and stops early when budget runs out.
func ladder(first float64, rungDur, budget time.Duration, do func(i int)) (best float64, rungs []rung, truncated bool) {
	deadline := time.Now().Add(budget)
	base := 0
	run := func(rate float64) bool {
		// A rung the generator could not keep to schedule says nothing
		// about the system: it is reported and run once more.
		for attempt := 0; attempt < 2; attempt++ {
			// Start every rung from a collected heap, so one rung's
			// garbage is not collected during the next.
			runtime.GC()
			// Request ids continue across rungs, so every request differs.
			r := openLoop(rate, rungDur, func(i int) { do(base + i) })
			base += len(r.lat)
			v := judge(r)
			rungs = append(rungs, rung{rate, v})
			if v.pass {
				best = rate
			}
			if v.valid {
				return v.pass
			}
		}
		return false
	}
	failed := 0.0
	for rate := first; failed == 0; rate *= 1.5 {
		if time.Until(deadline) < rungDur {
			return best, rungs, true
		}
		if !run(rate) {
			failed = rate
		}
	}
	lo := best
	for step := 0; step < 3 && lo > 0; step++ {
		if time.Until(deadline) < rungDur {
			return best, rungs, true
		}
		mid := math.Sqrt(lo * failed)
		if run(mid) {
			lo = mid
		} else {
			failed = mid
		}
	}
	return best, rungs, false
}
