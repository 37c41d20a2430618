package main

import (
	"fmt"
	"math/rand"
	"strings"

	"kizzle/internal/ekit"
	"kizzle/internal/phishkit"
	"kizzle/internal/pipeline"
)

// numVariants is the size of the input space a seed selects from: seed
// mod numVariants picks the starting day (and, for polymorphic, the
// junk-mutation stream), so the pinned expected outputs (expected.json)
// cover every seed. The zipf popularity draws and the request nonces use
// the full seed.
const numVariants = 8

// variantOf maps a seed onto the pinned input space.
func variantOf(seed int64) int {
	v := int(seed % numVariants)
	if v < 0 {
		v += numVariants
	}
	return v
}

// startDay is the first synthetic August day of a variant: 8/5 … 8/8
// (variants v and v+4 share a start day and differ in their junk and
// popularity streams). Every plan spans several days from its start, so
// runs at different seeds share most of their days: a seed changes the
// inputs without changing the workload's character.
func startDay(variant int) int { return ekit.Date(8, 5+variant%4) }

// document is one served document with its synth ground truth.
type document struct {
	content []byte
	kit     bool
}

// known is one labelled payload added to a compiler's corpus.
type known struct{ family, payload string }

// unit is one compile batch: each profile's inputs and the known
// payloads added to its corpus before the batch runs.
type unit struct {
	// fresh starts the batch from new compilers: empty content cache and
	// empty known-malware corpus (a cold day).
	fresh            bool
	js, wk           []pipeline.Input
	jsKnown, wkKnown []known
	// heldout are the day's documents the batch did not see, vetted
	// after the set is deployed (empty for workloads without them).
	heldout []document
}

// plan is everything a workload feeds the program, derived only from
// the workload name and the variant.
type plan struct {
	workload string
	variant  int
	// units[0] is the training compile done during set-up; cycle lists
	// the unit indices the run compiles, in order, round and round.
	units []unit
	cycle []int
	// compileShare is the fraction of the run spent in the compile loop.
	compileShare float64
	// publishUnderLoad publishes the compiled sets in turn while the
	// fixed-rate serving phases run, so replicas hot-swap under load.
	publishUnderLoad bool
	// pool is what the serving phases draw requests from.
	pool []document
	// zipf is the popularity exponent over the pool (0: uniform).
	zipf float64
	// nonce makes every request's bytes unique in the run.
	nonce bool
}

var workloads = []string{"daily", "polymorphic", "serve-hot", "serve-unique"}

func buildPlan(workload string, variant int) (*plan, error) {
	switch workload {
	case "daily":
		return dailyPlan(variant)
	case "polymorphic":
		return polymorphicPlan(variant)
	case "serve-hot", "serve-unique":
		return servePlan(workload, variant)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
}

func jsKnownFor(day int) []known {
	var out []known
	for _, fam := range ekit.Families {
		out = append(out, known{fam.String(), ekit.Payload(fam, day)})
	}
	return out
}

func wkKnownFor(day int) []known {
	var out []known
	for _, fam := range phishkit.Families {
		out = append(out, known{"webkit/" + fam.String(), phishkit.Payload(fam, day)})
	}
	return out
}

// replicate models observation multiplicity: the provider ingests each
// distinct document several times.
func replicate(distinct []pipeline.Input, times int) []pipeline.Input {
	out := make([]pipeline.Input, 0, len(distinct)*times)
	for r := 0; r < times; r++ {
		for _, in := range distinct {
			out = append(out, pipeline.Input{ID: fmt.Sprintf("%s#%d", in.ID, r), Content: in.Content})
		}
	}
	return out
}

// chain builds a day-over-day sequence: day 0 is a stream day's distinct
// documents; each later day carries 85% of the previous day's distinct
// content over and fills the rest from the next stream day. The next
// stream day's unused documents are that day's held-out set.
func chain(days int, distinctOf func(day int) ([]pipeline.Input, []document)) (batches [][]pipeline.Input, heldout [][]document) {
	const overlap = 0.85
	prev, _ := distinctOf(0)
	batches = append(batches, prev)
	heldout = append(heldout, nil)
	for d := 1; d < days; d++ {
		next, nextDocs := distinctOf(d)
		carried := int(float64(len(prev)) * overlap)
		novel := len(prev) - carried
		if novel > len(next) {
			novel = len(next)
		}
		cur := append(append([]pipeline.Input(nil), prev[:carried]...), next[:novel]...)
		batches = append(batches, cur)
		heldout = append(heldout, nextDocs[novel:])
		prev = cur
	}
	return batches, heldout
}

// dailyPlan: the realistic compile loop. Ten consecutive days from the
// variant's start, JS and webkit compiled by long-lived compilers seeded
// with yesterday's payloads; day 0 is cold, days 1-9 warm.
func dailyPlan(variant int) (*plan, error) {
	const days, dup = 10, 3
	start := startDay(variant)
	jcfg := ekit.DefaultStreamConfig()
	jcfg.BenignPerDay = 150
	js, err := ekit.NewStream(jcfg)
	if err != nil {
		return nil, err
	}
	wcfg := phishkit.DefaultStreamConfig()
	wcfg.BenignPerDay = 60
	wk, err := phishkit.NewStream(wcfg)
	if err != nil {
		return nil, err
	}
	jsBatches, jsHeld := chain(days, func(d int) ([]pipeline.Input, []document) {
		var ins []pipeline.Input
		var docs []document
		for _, s := range js.Day(start + d) {
			ins = append(ins, pipeline.Input{ID: s.ID, Content: s.Content})
			docs = append(docs, document{[]byte(s.Content), s.Family.Malicious()})
		}
		return ins, docs
	})
	wkBatches, wkHeld := chain(days, func(d int) ([]pipeline.Input, []document) {
		var ins []pipeline.Input
		var docs []document
		for _, s := range wk.Day(start + d) {
			ins = append(ins, pipeline.Input{ID: s.ID, Content: s.Content})
			docs = append(docs, document{[]byte(s.Content), s.Family.Malicious()})
		}
		return ins, docs
	})
	p := &plan{workload: "daily", variant: variant, compileShare: 0.3}
	for d := 0; d < days; d++ {
		u := unit{
			fresh:   d == 0,
			js:      replicate(jsBatches[d], dup),
			wk:      replicate(wkBatches[d], dup),
			jsKnown: jsKnownFor(start + d - 1),
			wkKnown: wkKnownFor(start + d - 1),
			heldout: append(append([]document(nil), jsHeld[d]...), wkHeld[d]...),
		}
		p.units = append(p.units, u)
		p.pool = append(p.pool, u.heldout...)
	}
	for d := 1; d <= days; d++ {
		p.cycle = append(p.cycle, d%days)
	}
	return p, nil
}

// junkVariant sprays random statements between a document's statements
// with probability rate per boundary: the §V junk-insertion evasion,
// which yields structurally distinct but related token sequences.
func junkVariant(doc string, rng *rand.Rand, rate float64) string {
	stmts := strings.SplitAfter(doc, ";")
	var sb strings.Builder
	for _, s := range stmts {
		sb.WriteString(s)
		if rng.Float64() < rate {
			sb.WriteString(junkStatement(rng))
		}
	}
	return sb.String()
}

func junkStatement(rng *rand.Rand) string {
	ident := func() string {
		const chars = "abcdefghijklmnopqrstuvwxyz"
		b := make([]byte, 3+rng.Intn(5))
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	num := func() string {
		return string([]byte{byte('1' + rng.Intn(9)), byte('0' + rng.Intn(10))})
	}
	switch rng.Intn(5) {
	case 0:
		return "var " + ident() + "=" + ident() + "(" + num() + ");"
	case 1:
		return ident() + "++;"
	case 2:
		return "if(" + ident() + "){" + ident() + "=" + num() + ";}"
	case 3:
		return "var " + ident() + "=[" + num() + "," + num() + "];"
	default:
		return "while(false){" + ident() + "();}"
	}
}

// polymorphicPlan: cold compiles of junk-mutated days. Every sample of
// a day is expanded into junk-inserted variants, so dedup leaves
// hundreds of related unique sequences and clustering dominates; each
// batch starts from an empty cache. One more variant per sample is held
// out and served. A batch's cost swings with its junk (0.1-0.9 s), so
// every run compiles all eight days of one window (8/5 … 8/12): the seed
// picks the day the cycle starts from and the junk streams.
func polymorphicPlan(variant int) (*plan, error) {
	const batches, variants, rate = 8, 3, 0.12
	first := ekit.Date(8, 5)
	cfg := ekit.DefaultStreamConfig()
	cfg.BenignPerDay = 40
	stream, err := ekit.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "polymorphic", variant: variant, compileShare: 0.3}
	start := first + variant%batches
	// Training set for the fleet's first deployment: the plain day
	// before the first batch.
	var train []pipeline.Input
	for _, s := range stream.Day(start - 1) {
		train = append(train, pipeline.Input{ID: s.ID, Content: s.Content})
	}
	p.units = append(p.units, unit{fresh: true, js: train, jsKnown: jsKnownFor(start - 2)})
	for b := 0; b < batches; b++ {
		day := first + (variant+b)%batches
		rng := rand.New(rand.NewSource(int64(1000 + 100*variant + day)))
		u := unit{fresh: true, jsKnown: jsKnownFor(day - 1)}
		for _, s := range stream.Day(day) {
			for v := 0; v < variants; v++ {
				u.js = append(u.js, pipeline.Input{ID: fmt.Sprintf("%s#%d", s.ID, v), Content: junkVariant(s.Content, rng, rate)})
			}
			u.heldout = append(u.heldout, document{[]byte(junkVariant(s.Content, rng, rate)), s.Family.Malicious()})
		}
		p.units = append(p.units, u)
		p.pool = append(p.pool, u.heldout...)
		p.cycle = append(p.cycle, b+1)
	}
	return p, nil
}

// servePlan: a matcher trained on day N serves days N+1…N+4 while the
// sets compiled from those days (day N+1 onwards warm, day N cold) are
// published under load. serve-hot draws zipf(1.2)-popular documents, so
// coalescing and the shared cache answer most requests; serve-unique
// appends a per-request nonce, so every request must be lexed and
// scanned.
func servePlan(workload string, variant int) (*plan, error) {
	const updates = 4
	start := startDay(variant)
	stream, err := ekit.NewStream(ekit.DefaultStreamConfig())
	if err != nil {
		return nil, err
	}
	p := &plan{workload: workload, variant: variant, compileShare: 0.1, publishUnderLoad: true, zipf: 1.2, nonce: workload == "serve-unique"}
	for d := 0; d <= updates; d++ {
		u := unit{fresh: d == 0, jsKnown: jsKnownFor(start + d - 1)}
		for _, s := range stream.Day(start + d) {
			u.js = append(u.js, pipeline.Input{ID: s.ID, Content: s.Content})
			if d > 0 {
				p.pool = append(p.pool, document{[]byte(s.Content), s.Family.Malicious()})
			}
		}
		p.units = append(p.units, u)
	}
	p.cycle = []int{1, 2, 3, 4, 0}
	return p, nil
}
