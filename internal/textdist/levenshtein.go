package textdist

import (
	"math/bits"

	"kizzle/internal/jstoken"
)

// Scratch holds the reusable state of the distance computations. The
// zero value is ready to use. A Scratch is not safe for concurrent use;
// give each worker goroutine its own.
type Scratch struct {
	prev, curr []int // Distance's DP rows
	// DistanceWithin's state: the match table, its symbol index, the
	// match-table offset of each column, and the DP words.
	peq    []uint64
	slot   []int32
	cols   []int
	blocks []block
}

// trimCommon strips the shared prefix and suffix of a and b. The
// Levenshtein distance is invariant under both trims, and the sequences
// DBSCAN compares are near-duplicates of one another (that is what a
// cluster is), so a linear scan routinely removes most of the O(d·n)
// dynamic program.
func trimCommon(a, b []jstoken.Symbol) ([]jstoken.Symbol, []jstoken.Symbol) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	p := 0
	for p < n && a[p] == b[p] {
		p++
	}
	a, b = a[p:], b[p:]
	n = len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0
	for s < n && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	return a[:len(a)-s], b[:len(b)-s]
}

// rows returns the two DP rows, each with capacity at least n, without
// clearing them (Distance initializes every cell it reads).
func (s *Scratch) rows(n int) (prev, curr []int) {
	if cap(s.prev) < n {
		s.prev = make([]int, n)
		s.curr = make([]int, n)
	}
	return s.prev[:n], s.curr[:n]
}

// Distance computes the Levenshtein edit distance (unit insert, delete and
// substitute costs) between two symbol sequences using two rolling rows.
func (s *Scratch) Distance(a, b []jstoken.Symbol) int {
	a, b = trimCommon(a, b)
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Keep the inner loop over the shorter sequence.
	if len(b) > len(a) {
		a, b = b, a
	}
	prev, curr := s.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	s.prev, s.curr = prev[:cap(prev)], curr[:cap(curr)]
	return prev[len(b)]
}

// DistanceWithin computes the Levenshtein distance between a and b if it is
// at most maxDist. If the true distance exceeds maxDist it returns
// (0, false). It runs Myers' bit-parallel edit distance in Hyyrö's blocked
// form over the Ukkonen band: the shorter sequence runs down the rows, 64
// rows per machine word, and each column of the longer one advances only
// the words that meet the band, so a pair costs O(maxDist·max(len)/64)
// word operations. That is what makes DBSCAN over thousands of samples per
// partition tractable.
func (s *Scratch) DistanceWithin(a, b []jstoken.Symbol, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	// The length difference is a lower bound on the distance.
	if len(b)-len(a) > maxDist {
		return 0, false
	}
	// Both trims drop the same count from each side, so a stays the
	// shorter sequence and the length difference (≤ maxDist, just
	// checked) is preserved.
	a, b = trimCommon(a, b)
	if len(a) == 0 {
		return len(b), true
	}
	m, n := len(a), len(b)
	// No distance exceeds n, so a larger bound changes nothing; clamping
	// keeps the band arithmetic below from overflowing.
	k := min(maxDist, n)
	// Ukkonen band: a path of cost ≤ k through cell (i, j) pays at least
	// |j-i| to reach it and |j-i-(n-m)| to leave it, so its diagonal j-i
	// lies in [-below, above]. Cells off the band may hold overestimates
	// without changing any distance ≤ k.
	above, below := (k+n-m)/2, (k-n+m)/2
	peq, cols := s.prepare(a, b)
	words := (m + 63) >> 6
	if cap(s.blocks) < words {
		s.blocks = make([]block, words)
	}
	blocks := s.blocks[:words]
	// Row i (1-based) is bit (i-1)&63 of word (i-1)>>6. Words first..last
	// are active; top is the DP value of the row above word first, in the
	// previous column.
	first, last, top := 0, -1, 0
	for j := 1; j <= n; j++ {
		// A word entering the band at the bottom starts with every
		// vertical delta +1 below the word above it: an overestimate of
		// cells that were off the band.
		for hi := min(m, j+below); last < (hi-1)>>6; {
			up := top
			if last >= first {
				up = blocks[last].score
			}
			last++
			blocks[last] = block{pv: ^uint64(0), score: up + 64}
		}
		// A word leaving the band at the top is dropped; the row above
		// the new first word is then taken to grow by +1 per column, again
		// an overestimate of off-band cells.
		for lo := max(1, j-above); first < (lo-1)>>6; first++ {
			top = blocks[first].score
		}
		top++
		eq := peq[cols[j-1]:]
		// Horizontal delta +1 above word first: exact for row 0.
		hp, hn := uint64(1), uint64(0)
		up, bound := top, n+1
		for w := first; w <= last; w++ {
			bl := &blocks[w]
			bl.pv, bl.mv, hp, hn = advance(bl.pv, bl.mv, eq[w], hp, hn)
			bl.score += int(hp) - int(hn)
			// Vertical deltas are ±1 at most, so no cell of the word is
			// below score-63, nor below the midpoint bound between the
			// row above it (up) and its last row (score).
			bound = min(bound, max(bl.score-63, (up+bl.score-63)>>1))
			up = bl.score
		}
		// An optimal path crosses every column on a band cell, and never
		// decreases; once every active cell exceeds k, so does the result.
		if bound > k {
			return 0, false
		}
	}
	// The last word's score is its bottom row, m rounded up to a
	// multiple of 64; take off the vertical deltas of the padding rows.
	bl := blocks[last]
	pad := ^uint64(0) << (m - (words-1)*64)
	d := bl.score - bits.OnesCount64(bl.pv&pad) + bits.OnesCount64(bl.mv&pad)
	if d > maxDist {
		return 0, false
	}
	return d, true
}

// block is one 64-row word of the bit-parallel DP column: pv and mv flag
// the rows whose value is one above (pv) or below (mv) the row before,
// and score is the value of the word's last row.
type block struct {
	pv, mv uint64
	score  int
}

// advance moves one word of the DP one column to the right (Myers 1999,
// in Hyyrö's blocked form). eq flags the rows whose symbol matches the
// column's. hp and hn are 1 when the row above the word grows (hp) or
// shrinks (hn) from the previous column to this one; the returned pair
// says the same of the word's last row.
func advance(pv, mv, eq, hp, hn uint64) (uint64, uint64, uint64, uint64) {
	xv := eq | mv
	eq |= hn
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	outp, outn := ph>>63, mh>>63
	ph = ph<<1 | hp
	mh = mh<<1 | hn
	return mh | ^(xv | ph), ph & xv, outp, outn
}

// prepare builds the match table for rows a and columns b. peq holds one
// row of (len(a)+63)/64 words per distinct symbol of a, after a zero row
// for symbols absent from a; cols[j] is the offset of b[j]'s row.
func (s *Scratch) prepare(a, b []jstoken.Symbol) (peq []uint64, cols []int) {
	words := (len(a) + 63) >> 6
	hi := 0
	for _, x := range a {
		hi = max(hi, int(x))
	}
	if len(s.slot) <= hi {
		s.slot = make([]int32, hi+1)
	}
	rows := int32(1)
	for _, x := range a {
		if s.slot[x] == 0 {
			s.slot[x] = rows
			rows++
		}
	}
	if need := int(rows) * words; cap(s.peq) < need {
		s.peq = make([]uint64, need)
	}
	peq = s.peq[:int(rows)*words]
	clear(peq)
	for i, x := range a {
		peq[int(s.slot[x])*words+i>>6] |= 1 << (i & 63)
	}
	if cap(s.cols) < len(b) {
		s.cols = make([]int, len(b))
	}
	cols = s.cols[:len(b)]
	for j, x := range b {
		r := 0
		if int(x) < len(s.slot) {
			r = int(s.slot[x])
		}
		cols[j] = r * words
	}
	// Leave the symbol index zeroed for the next pair.
	for _, x := range a {
		s.slot[x] = 0
	}
	return peq, cols
}

// Normalized returns the edit distance between a and b divided by the
// length of the longer sequence, the quantity the paper thresholds at 0.10.
// Two empty sequences have distance 0.
func (s *Scratch) Normalized(a, b []jstoken.Symbol) float64 {
	n := max2(len(a), len(b))
	if n == 0 {
		return 0
	}
	return float64(s.Distance(a, b)) / float64(n)
}

// WithinNormalized reports whether the normalized edit distance between a
// and b is at most eps, using the banded early-abandon computation.
func (s *Scratch) WithinNormalized(a, b []jstoken.Symbol, eps float64) bool {
	n := max2(len(a), len(b))
	if n == 0 {
		return true
	}
	maxDist := int(eps * float64(n))
	_, ok := s.DistanceWithin(a, b, maxDist)
	return ok
}

// MaxCandidateLen returns the largest sequence length that can still be
// within normalized distance eps of a sequence of length n, i.e. the upper
// edge of the length window the clustering index prunes with. The bound is
// conservative (it may admit a length the exact check then rejects, never
// the reverse).
func MaxCandidateLen(n int, eps float64) int {
	if eps >= 1 {
		return int(^uint(0) >> 1)
	}
	return int(float64(n)/(1-eps)) + 1
}

// MinCandidateLen is the lower edge of the eps length window for a
// sequence of length n, conservative in the same direction.
func MinCandidateLen(n int, eps float64) int {
	m := n - int(eps*float64(n)) - 1
	if m < 0 {
		return 0
	}
	return m
}

// Distance computes the Levenshtein edit distance with freshly allocated
// rows. Hot paths should use a per-worker Scratch instead.
func Distance(a, b []jstoken.Symbol) int {
	var s Scratch
	return s.Distance(a, b)
}

// DistanceWithin is the allocating form of Scratch.DistanceWithin.
func DistanceWithin(a, b []jstoken.Symbol, maxDist int) (int, bool) {
	var s Scratch
	return s.DistanceWithin(a, b, maxDist)
}

// Normalized is the allocating form of Scratch.Normalized.
func Normalized(a, b []jstoken.Symbol) float64 {
	var s Scratch
	return s.Normalized(a, b)
}

// WithinNormalized is the allocating form of Scratch.WithinNormalized.
func WithinNormalized(a, b []jstoken.Symbol, eps float64) bool {
	var s Scratch
	return s.WithinNormalized(a, b, eps)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }
