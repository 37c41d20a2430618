// Command perfbench is the repository benchmark: one process that runs
// a named workload over the three Kizzle paths — the compile loop
// (pipeline.Process), publish-to-armed (sigdb.Store.Publish through
// sigdb.Client.Run to every replica's gateway.Vetter) and open-loop
// admission (gateway.Admitter.VetBytes into replicas sharing one
// verdictcache.Cache) — checks every output against pinned digests, and
// prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload daily --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with span-recording wrappers around every layer boundary and
// reports the per-layer metrics instead, writing the spans under
// .bench_build/traces. --record <file> rewrites the pinned expected
// outputs; --counts checks which per-layer counts repeat exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	recordPath := flag.String("record", "", "record the expected outputs of every workload and variant to this file and exit")
	counts := flag.Bool("counts", false, "report which per-layer counts of the workload repeat exactly at GOMAXPROCS 1 and 2")
	flag.Parse()

	var err error
	switch {
	case *recordPath != "":
		err = record(*recordPath)
	case *counts:
		err = countRepeatability(*workload, *seed)
	default:
		var res *result
		res, err = run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".")
		if err == nil {
			var b []byte
			if b, err = json.Marshal(res); err == nil {
				fmt.Println(string(b))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
