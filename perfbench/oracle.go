package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kizzle"
	"kizzle/gateway"
)

// expectedJSON pins, per workload and variant, the outputs of this
// program at the commit that recorded it (perfbench -record). Outputs
// must be a pure function of the inputs, so every run at every seed,
// traced or not, must reproduce them exactly.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one (workload, variant): per plan unit, the digest of
// its signature set, of the verdicts on its held-out documents (empty
// when it has none), and of the verdicts its set gives the whole
// serving pool.
type expectation struct {
	Sets    []string `json:"sets"`
	Heldout []string `json:"heldout"`
	Pool    []string `json:"pool"`
}

// expectedFile maps workload -> variant (decimal) -> expectation.
type expectedFile map[string]map[string]expectation

func loadExpected(workload string, variant int) (expectation, error) {
	var all expectedFile
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return expectation{}, fmt.Errorf("expected.json: %w", err)
	}
	e, ok := all[workload][strconv.Itoa(variant)]
	if !ok {
		return expectation{}, fmt.Errorf("expected.json has no entry for %s variant %d", workload, variant)
	}
	return e, nil
}

// verdictDigest fingerprints a decision list in document order.
func verdictDigest(ds []gateway.Decision) string {
	var sb strings.Builder
	for _, d := range ds {
		if d.Blocked {
			sb.WriteString("1 " + d.Family + "\n")
		} else {
			sb.WriteString("0\n")
		}
	}
	return shortSum([]byte(sb.String()))
}

// referenceVerdicts vets docs directly with a fresh matcher for sigs:
// no sigdb, no admission batching, no shared cache.
func referenceVerdicts(sigs []kizzle.Signature, docs []document) ([]gateway.Decision, error) {
	m, err := kizzle.NewMatcher(sigs)
	if err != nil {
		return nil, err
	}
	views := make([][]byte, len(docs))
	for i, d := range docs {
		views[i] = d.content
	}
	return gateway.NewVetter(m).VetAllBytes(views), nil
}

// tally counts operations and the failures among them.
type tally struct{ attempted, failed int64 }

func (t *tally) check(ok bool, what string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL "+what+"\n", args...)
		}
	}
}

// expectAt returns list[i], or "" past its end (a plan the expected
// file does not describe, which then fails every check).
func expectAt(list []string, i int) string {
	if i < len(list) {
		return list[i]
	}
	return ""
}

// record compiles every unit of every workload plan once, in run order,
// and writes the digests the runs are checked against.
func record(path string) error {
	out := expectedFile{}
	for _, w := range workloads {
		out[w] = map[string]expectation{}
		for v := 0; v < numVariants; v++ {
			p, err := buildPlan(w, v)
			if err != nil {
				return err
			}
			e := expectation{
				Sets:    make([]string, len(p.units)),
				Heldout: make([]string, len(p.units)),
				Pool:    make([]string, len(p.units)),
			}
			cs := &compilers{}
			order := append([]int{0}, p.cycle...)
			for _, u := range order {
				c, err := compileUnit(cs, p.units[u])
				if err != nil {
					return err
				}
				if e.Sets[u] != "" && e.Sets[u] != c.digest {
					return fmt.Errorf("%s variant %d unit %d: recompiling changed the set digest", w, v, u)
				}
				e.Sets[u] = c.digest
				if len(p.units[u].heldout) > 0 {
					ds, err := referenceVerdicts(c.sigs, p.units[u].heldout)
					if err != nil {
						return err
					}
					e.Heldout[u] = verdictDigest(ds)
				}
				ds, err := referenceVerdicts(c.sigs, p.pool)
				if err != nil {
					return err
				}
				e.Pool[u] = verdictDigest(ds)
			}
			out[w][strconv.Itoa(v)] = e
			fmt.Fprintf(os.Stderr, "recorded %s variant %d: %d units\n", w, v, len(p.units))
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
