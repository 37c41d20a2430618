package sigmatch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kizzle/internal/jstoken"
	"kizzle/internal/siggen"
)

// TestScanBytesMatchesScan pins the zero-copy byte-slice entry points
// against the string path: same documents, same matches, same detection
// verdicts — including documents the scanner was not trained on, the
// empty document, and one too large for the pooled lexing buffers.
func TestScanBytesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sigs []siggen.Signature
	var docs []string
	for k := 0; k < 6; k++ {
		srcs := make([]string, 3)
		for i := range srcs {
			id := randIdent(rng)
			srcs[i] = `var ` + id + ` = window["` + randIdent(rng) + `"](` + fmt.Sprint(10+rng.Intn(90)) + `); ` +
				id + `.go("` + randIdent(rng) + `");`
		}
		samples := make([][]jstoken.Token, len(srcs))
		for i, s := range srcs {
			samples[i] = jstoken.Lex(s)
		}
		sig, err := siggen.Generate(fmt.Sprintf("F%d", k), samples, siggen.Config{MinTokens: 5, MaxTokens: 200})
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
		docs = append(docs, srcs...)
	}
	docs = append(docs,
		"",
		"var benign = 1;",
		`<html><script>var q = window["x"](42); q.go("y");</script></html>`,
		// Over maxPooledLex: lexed outside the buffer pool.
		strings.Repeat("var pad = 1;\n", maxPooledLex/8)+docs[0],
	)
	s, err := NewScanner(sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want := s.Scan(doc)
		got := s.ScanBytes([]byte(doc))
		if len(got) != len(want) {
			t.Fatalf("doc %d: ScanBytes %d matches, Scan %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("doc %d match %d: bytes %+v vs string %+v", i, j, got[j], want[j])
			}
		}
		if s.DetectsBytes([]byte(doc)) != s.Detects(doc) {
			t.Fatalf("doc %d: DetectsBytes disagrees with Detects", i)
		}
	}

	// Batched byte scanning must align with per-document byte scanning.
	byteDocs := make([][]byte, len(docs))
	for i, doc := range docs {
		byteDocs[i] = []byte(doc)
	}
	batch := s.ScanDocumentsBytes(byteDocs)
	for i, doc := range docs {
		want := s.Scan(doc)
		if len(batch[i]) != len(want) {
			t.Fatalf("batch doc %d: %d matches, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("batch doc %d match %d: %+v vs %+v", i, j, batch[i][j], want[j])
			}
		}
	}
}
