package sigmatch

import (
	"runtime"
	"sync"

	"kizzle/internal/jstoken"
	"kizzle/internal/parallel"
	"kizzle/internal/zerocopy"
)

// Byte-slice entry points for the serving hot path. The gateway reads
// response bodies into pooled []byte buffers; these scan them in place
// through a zerocopy string view instead of round-tripping through a
// string copy per document. The scanner never retains any part of the
// document — lexer tokens live only for the duration of the scan, and
// Match results carry only signature-owned strings and integer offsets —
// so the caller may reuse or pool the buffer as soon as the call returns.

// ScanBytes scans a document held in a byte slice without copying it.
// Results are identical to Scan(string(doc)).
func (s *Scanner) ScanBytes(doc []byte) []Match {
	if len(doc) > maxPooledLex {
		return s.ScanTokens(jstoken.LexDocument(zerocopy.String(doc)))
	}
	sc := lexPool.Get().(*jstoken.Scratch)
	defer lexPool.Put(sc)
	return s.ScanTokens(sc.LexDocumentInto(zerocopy.String(doc)))
}

// lexPool recycles token buffers across ScanBytes calls. A scan's tokens
// live only until it returns, so serving at load lexes without a token
// slice per document — that slice is most of what a scan allocates, and
// the collections it triggers are what stretch admission tails.
var lexPool = sync.Pool{New: func() any { return new(jstoken.Scratch) }}

// maxPooledLex bounds the documents lexed into pooled buffers (a pooled
// buffer holds ~11 bytes per document byte), so a rare huge page is not
// kept alive by the pool between collections.
const maxPooledLex = 256 << 10

// DetectsBytes reports whether any deployed signature matches the
// document, scanning the byte slice in place and stopping at the first
// hit. Results are identical to Detects(string(doc)).
func (s *Scanner) DetectsBytes(doc []byte) bool {
	return s.DetectsTokens(jstoken.LexDocument(zerocopy.String(doc)))
}

// ScanDocumentsBytes tokenizes and scans raw byte-slice documents
// concurrently — the batched zero-copy entry point admission batching
// dispatches through. Results align with the input and are identical to
// ScanDocuments on string copies of the same documents.
func (s *Scanner) ScanDocumentsBytes(docs [][]byte) [][]Match {
	out := make([][]Match, len(docs))
	parallel.ForEach(len(docs), runtime.GOMAXPROCS(0), 1, func(_, i int) {
		out[i] = s.ScanBytes(docs[i])
	})
	return out
}
