#!/bin/sh
# benchgate.sh — run the bench smoke set and gate it against the
# committed baseline.
#
#   scripts/benchgate.sh gate       compare medians vs BENCH_BASELINE.json
#                                   (fails on >tolerance regression) and
#                                   write BENCH_CURRENT.json for the CI
#                                   artifact upload
#   scripts/benchgate.sh baseline   refresh BENCH_BASELINE.json in place
#   scripts/benchgate.sh snapshot F write the run to file F (trajectory
#                                   snapshots like BENCH_PR4.json)
#
# Environment knobs: BENCH_COUNT (runs per benchmark, default 5; medians
# absorb outliers), BENCH_TOLERANCE (default 0.25 — sized for shared CI
# runners; local boxes can tighten it).
set -eu

MODE="${1:-gate}"
COUNT="${BENCH_COUNT:-5}"
TOLERANCE="${BENCH_TOLERANCE:-0.25}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# The bench smoke set: every perf-critical benchmark the README/ROADMAP
# numbers come from. Microsecond-scale benchmarks get hundreds of
# iterations — 10x-style smoke counts are fine for "does it still run"
# but far too noisy to gate on; the big pipeline benchmarks amortize
# their noise over long runs and stay at small counts. -trimpath keeps
# the bench binaries reproducible.
run_benches() {
    export GOFLAGS="${GOFLAGS:--trimpath}"
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkScan$' -benchtime=300x ./internal/sigmatch/
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkCluster1000$' -benchtime=50x ./internal/dbscan/
    # The clustering kernel on the shape that dominates a cold compile:
    # junk-inserted near-duplicates that end within eps.
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkDistanceWithin$/^junk-within$' -benchtime=500x ./internal/textdist/
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkFingerprint(Scratch)?$' -benchtime=300x ./internal/winnow/
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkLexSymbols$' -benchtime=200x ./internal/jstoken/
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkTokenize$' -benchtime=10x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkPipelineThroughput$' -benchtime=3x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkWebkitPipelineThroughput$' -benchtime=3x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkPipelineDayOverDay$' -benchtime=10x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkPipelineSharded$' -benchtime=1x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkMatcherRebuild$' -benchtime=300x .
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkRecompile$' -benchtime=10x .
    # The serving-tier SLO benchmark: its p50-us/p99-us custom metrics are
    # gated alongside ns/op (benchgate treats p50-*/p99-* as SLOs). Long
    # enough per run that the 32-worker admission windows fill.
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkServe$' -benchtime=20000x ./gateway/
    # The fleet tier: 3 round-robin replicas with and without the shared
    # verdict cache; shared-hits/req is recorded, p50/p99 are gated.
    go test -run=NONE -count="$COUNT" -bench='^BenchmarkServeFleet$' -benchtime=10000x ./gateway/
}

# Write to the file directly (not via `... | tee`, whose exit status
# would mask a failing bench run) so a compile error or a tripped bench
# guard aborts the script instead of silently writing a partial baseline.
run_benches >"$OUT"
cat "$OUT"

case "$MODE" in
gate)
    go run ./cmd/benchgate -baseline BENCH_BASELINE.json -tolerance "$TOLERANCE" \
        -write BENCH_CURRENT.json -note "gate run" <"$OUT"
    ;;
baseline)
    go run ./cmd/benchgate -write BENCH_BASELINE.json -note "baseline (refresh with: make bench-baseline)" <"$OUT"
    ;;
snapshot)
    go run ./cmd/benchgate -write "${2:?snapshot file required}" -note "trajectory snapshot" <"$OUT"
    ;;
*)
    echo "benchgate.sh: unknown mode '$MODE' (gate|baseline|snapshot)" >&2
    exit 2
    ;;
esac
