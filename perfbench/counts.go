package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// countRepeatability runs the workload's compile units and a short
// fixed-rate serving phase twice at GOMAXPROCS 1 and twice at 2, and
// reports which per-layer counts came out identical in all four runs.
// Only those may back a count-based claim.
func countRepeatability(workload string, seed int64) error {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var runs []map[string]int64
	for _, procs := range []int{1, 1, 2, 2} {
		runtime.GOMAXPROCS(procs)
		c, err := collectCounts(workload, seed)
		if err != nil {
			return err
		}
		runs = append(runs, c)
	}
	report := map[string]any{"workload": workload, "seed": seed}
	exact, moved := []string{}, map[string][]int64{}
	for name := range runs[0] {
		vals := []int64{}
		same := true
		for _, r := range runs {
			vals = append(vals, r[name])
			same = same && r[name] == runs[0][name]
		}
		if same {
			exact = append(exact, name)
		} else {
			moved[name] = vals
		}
	}
	sort.Strings(exact)
	report["exact"] = exact
	report["moved"] = moved
	b, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// collectCounts is one repeatability run.
func collectCounts(workload string, seed int64) (map[string]int64, error) {
	p, err := buildPlan(workload, variantOf(seed))
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	cs := &compilers{}
	var sets []compiled
	for k, u := range append([]int{0}, p.cycle...) {
		c, err := compileUnit(cs, p.units[u])
		if err != nil {
			return nil, err
		}
		sets = append(sets, c)
		for i, st := range c.stats {
			key := fmt.Sprintf("compile%d.%d.", k, i)
			out[key+"pipeline.unique_sequences"] = int64(st.UniqueSequences)
			out[key+"pipeline.partitions"] = int64(st.Partitions)
			out[key+"pipeline.noise_points"] = int64(st.NoisePoints)
			out[key+"pipeline.label_sweeps"] = int64(st.LabelSweeps)
			out[key+"contentcache.hits"] = st.CacheHits
			out[key+"contentcache.misses"] = st.CacheMisses
		}
	}
	var clientErrs atomic.Int64
	fl := startFleet(nil, &clientErrs)
	defer fl.close()
	for k, c := range sets {
		if _, err := fl.publish(c.sigs, k); err != nil {
			return nil, err
		}
	}
	pk := newPicker(p, seed)
	openLoop(lowRate, time.Second, func(i int) {
		j := pk.pick(int64(i))
		doc := p.pool[j].content
		if p.nonce {
			doc = withNonce(doc, seed, int64(i))
		}
		fl.serve(int64(i), doc)
	})
	for i, r := range fl.reps {
		for name, v := range r.admit.Metrics() {
			if n, ok := v.(int64); ok {
				out[fmt.Sprintf("replica%d.gateway.%s", i, name)] = n
			}
		}
		for name, v := range r.client.Metrics() {
			if n, ok := v.(int64); ok {
				out[fmt.Sprintf("replica%d.sigdb.%s", i, name)] = n
			}
		}
	}
	for name, v := range fl.shared.Metrics() {
		switch n := v.(type) {
		case int64:
			out["verdictcache."+name] = n
		case int:
			out["verdictcache."+name] = int64(n)
		}
	}
	if n := clientErrs.Load(); n > 0 {
		return nil, fmt.Errorf("%d sigdb client errors", n)
	}
	fmt.Fprintf(os.Stderr, "counts run at GOMAXPROCS %d done\n", runtime.GOMAXPROCS(0))
	return out, nil
}
