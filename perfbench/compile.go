package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"kizzle"
	"kizzle/internal/contentcache"
	"kizzle/internal/ingest"
	"kizzle/internal/pipeline"
)

// compiler mirrors one long-lived kizzle.Compiler (default parameters,
// signature slack 2, the content cache carried across batches) but
// calls pipeline.Process directly, because only pipeline.Stats carries
// the per-stage times.
type compiler struct {
	cfg    pipeline.Config
	corpus *pipeline.Corpus
}

func newCompiler(profileID string) (*compiler, error) {
	prof, ok := ingest.Lookup(profileID)
	if !ok {
		return nil, fmt.Errorf("no ingest profile %q", profileID)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Cache = contentcache.New(0)
	cfg.Signature.LengthSlack = 2
	cfg.Profile = prof
	return &compiler{cfg: cfg, corpus: pipeline.NewCorpus(cfg.Winnow, 64)}, nil
}

// compilers are the JS and webkit compilers of one compile loop.
type compilers struct{ js, wk *compiler }

func (cs *compilers) reset() error {
	var err error
	if cs.js, err = newCompiler("js"); err != nil {
		return err
	}
	cs.wk, err = newCompiler("webkit")
	return err
}

// compiled is one unit's output.
type compiled struct {
	sigs   []kizzle.Signature
	digest string
	// wall is the time spent inside pipeline.Process, both profiles.
	wall  time.Duration
	stats []pipeline.Stats
	// cold reports that the unit started from empty compilers.
	cold bool
}

// compileUnit runs one unit through the compile loop: corpus seeding,
// then one pipeline.Process per profile with inputs.
func compileUnit(cs *compilers, u unit) (compiled, error) {
	out := compiled{cold: u.fresh || cs.js == nil}
	if out.cold {
		if err := cs.reset(); err != nil {
			return out, err
		}
	}
	for _, k := range u.jsKnown {
		cs.js.corpus.Add(k.family, k.payload)
	}
	for _, k := range u.wkKnown {
		cs.wk.corpus.Add(k.family, k.payload)
	}
	var raw []json.RawMessage
	for _, step := range []struct {
		c  *compiler
		in []pipeline.Input
	}{{cs.js, u.js}, {cs.wk, u.wk}} {
		if len(step.in) == 0 {
			continue
		}
		t0 := time.Now()
		res, err := pipeline.Process(step.in, step.c.corpus, step.c.cfg)
		out.wall += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("compile: %w", err)
		}
		out.stats = append(out.stats, res.Stats)
		for _, sig := range res.Signatures {
			b, err := json.Marshal(sig)
			if err != nil {
				return out, fmt.Errorf("marshal signature: %w", err)
			}
			raw = append(raw, b)
		}
	}
	// kizzle.Signature's JSON form is the structural signature itself,
	// so the round trip hands sigdb exactly what the pipeline produced.
	setJSON, err := json.Marshal(raw)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(setJSON, &out.sigs); err != nil {
		return out, fmt.Errorf("decode signature set: %w", err)
	}
	out.digest = setDigest(out.sigs)
	return out, nil
}

// setDigest fingerprints a signature set by its canonical JSON.
func setDigest(sigs []kizzle.Signature) string {
	b, err := json.Marshal(sigs)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return shortSum(b)
}

func shortSum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
