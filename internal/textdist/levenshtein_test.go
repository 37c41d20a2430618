package textdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kizzle/internal/jstoken"
)

func syms(xs ...int) []jstoken.Symbol {
	out := make([]jstoken.Symbol, len(xs))
	for i, x := range xs {
		out[i] = jstoken.Symbol(x)
	}
	return out
}

func fromString(s string) []jstoken.Symbol {
	out := make([]jstoken.Symbol, len(s))
	for i := range s {
		out[i] = jstoken.Symbol(s[i])
	}
	return out
}

func TestDistanceTable(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{"both empty", "", "", 0},
		{"a empty", "", "abc", 3},
		{"b empty", "abc", "", 3},
		{"equal", "abc", "abc", 0},
		{"single sub", "abc", "axc", 1},
		{"single insert", "abc", "abxc", 1},
		{"single delete", "abc", "ac", 1},
		{"kitten sitting", "kitten", "sitting", 3},
		{"flaw lawn", "flaw", "lawn", 2},
		{"disjoint", "aaaa", "bbbb", 4},
		{"prefix", "abcdef", "abc", 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := fromString(tt.a), fromString(tt.b)
			if got := Distance(a, b); got != tt.want {
				t.Errorf("Distance(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
			// Symmetry.
			if got := Distance(b, a); got != tt.want {
				t.Errorf("Distance(%q,%q) = %d, want %d (symmetry)", tt.b, tt.a, got, tt.want)
			}
		})
	}
}

func TestDistanceWithinAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		a := randSeq(rng, rng.Intn(40))
		b := randSeq(rng, rng.Intn(40))
		full := Distance(a, b)
		for _, bound := range []int{0, 1, 2, full - 1, full, full + 1, 50} {
			if bound < 0 {
				continue
			}
			got, ok := DistanceWithin(a, b, bound)
			if full <= bound {
				if !ok || got != full {
					t.Fatalf("DistanceWithin(%v,%v,%d) = (%d,%v), want (%d,true)", a, b, bound, got, ok, full)
				}
			} else if ok {
				t.Fatalf("DistanceWithin(%v,%v,%d) = (%d,true), want false (full=%d)", a, b, bound, got, full)
			}
		}
	}
}

func TestDistanceWithinNegativeBound(t *testing.T) {
	if _, ok := DistanceWithin(syms(1), syms(1), -1); ok {
		t.Error("negative bound must report false")
	}
}

func TestDistanceWithinEmpty(t *testing.T) {
	d, ok := DistanceWithin(nil, syms(1, 2, 3), 3)
	if !ok || d != 3 {
		t.Errorf("got (%d,%v), want (3,true)", d, ok)
	}
	if _, ok := DistanceWithin(nil, syms(1, 2, 3), 2); ok {
		t.Error("bound 2 must fail for distance 3")
	}
}

func TestNormalized(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want float64
	}{
		{"identical", "abcd", "abcd", 0},
		{"empty", "", "", 0},
		{"one of four", "abcd", "abxd", 0.25},
		{"total", "ab", "xy", 1},
		{"against empty", "abcd", "", 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Normalized(fromString(tt.a), fromString(tt.b)); got != tt.want {
				t.Errorf("Normalized = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWithinNormalized(t *testing.T) {
	// 100 symbols, 5 substitutions: normalized distance 0.05.
	a := randSeq(rand.New(rand.NewSource(1)), 100)
	b := make([]jstoken.Symbol, len(a))
	copy(b, a)
	for i := 0; i < 5; i++ {
		b[i*17] ^= 0x7fff
	}
	if !WithinNormalized(a, b, 0.10) {
		t.Error("0.05 distance must be within eps 0.10")
	}
	if WithinNormalized(a, b, 0.01) {
		t.Error("0.05 distance must not be within eps 0.01")
	}
}

func randSeq(rng *rand.Rand, n int) []jstoken.Symbol {
	out := make([]jstoken.Symbol, n)
	for i := range out {
		out[i] = jstoken.Symbol(rng.Intn(8) + 1)
	}
	return out
}

// Property: triangle inequality d(a,c) <= d(a,b) + d(b,c), required for the
// distance to behave as a metric under DBSCAN.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a := randSeq(rng, rng.Intn(25))
		b := randSeq(rng, rng.Intn(25))
		c := randSeq(rng, rng.Intn(25))
		if Distance(a, c) > Distance(a, b)+Distance(b, c) {
			t.Fatalf("triangle inequality violated: a=%v b=%v c=%v", a, b, c)
		}
	}
}

// Property: identity of indiscernibles and non-negativity.
func TestMetricAxiomsProperty(t *testing.T) {
	f := func(xs, ys []byte) bool {
		a := make([]jstoken.Symbol, len(xs))
		for i, x := range xs {
			a[i] = jstoken.Symbol(x % 6)
		}
		b := make([]jstoken.Symbol, len(ys))
		for i, y := range ys {
			b[i] = jstoken.Symbol(y % 6)
		}
		d := Distance(a, b)
		if d < 0 {
			return false
		}
		if d == 0 {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return Distance(a, a) == 0 && Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDistanceFull(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randSeq(rng, 500)
	y := randSeq(rng, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

func BenchmarkDistanceBanded(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randSeq(rng, 500)
	y := make([]jstoken.Symbol, len(x))
	copy(y, x)
	for i := 0; i < 20; i++ {
		y[i*23] ^= 0x0f
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceWithin(x, y, 50)
	}
}

// TestDistanceWithinMatchesDistance: for random pairs and bounds, the
// banded computation must agree exactly with the full DP — same distance
// when within, and a rejection exactly when the true distance exceeds the
// bound.
func TestDistanceWithinMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch Scratch
	for iter := 0; iter < 2000; iter++ {
		a := randSeq(rng, rng.Intn(80))
		b := append([]jstoken.Symbol(nil), a...)
		// Mutate b: random edits so distances cover the whole range.
		for k := rng.Intn(20); k > 0 && len(b) > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] = jstoken.Symbol(1 + rng.Intn(12))
			case 1:
				i := rng.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			case 2:
				i := rng.Intn(len(b) + 1)
				b = append(b[:i], append([]jstoken.Symbol{jstoken.Symbol(1 + rng.Intn(12))}, b[i:]...)...)
			}
		}
		want := Distance(a, b)
		maxDist := rng.Intn(30)
		got, ok := DistanceWithin(a, b, maxDist)
		if want <= maxDist {
			if !ok || got != want {
				t.Fatalf("DistanceWithin(%d) = (%d,%v), want (%d,true)", maxDist, got, ok, want)
			}
		} else if ok {
			t.Fatalf("DistanceWithin(%d) = (%d,true), true distance %d", maxDist, got, want)
		}
		// The reusable scratch must agree with the allocating forms even
		// when reused across differently-sized computations.
		if sd := scratch.Distance(a, b); sd != want {
			t.Fatalf("Scratch.Distance = %d, want %d", sd, want)
		}
		sg, sok := scratch.DistanceWithin(a, b, maxDist)
		if sg != got || sok != ok {
			t.Fatalf("Scratch.DistanceWithin = (%d,%v), want (%d,%v)", sg, sok, got, ok)
		}
		eps := rng.Float64() * 0.3
		if w1, w2 := WithinNormalized(a, b, eps), scratch.WithinNormalized(a, b, eps); w1 != w2 {
			t.Fatalf("WithinNormalized disagreement: %v vs %v", w1, w2)
		}
	}
}

// TestCandidateLenBoundsConservative: the length window used by the
// clustering index must never exclude a pair the exact predicate accepts.
func TestCandidateLenBoundsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch Scratch
	for iter := 0; iter < 3000; iter++ {
		a := randSeq(rng, 1+rng.Intn(120))
		b := randSeq(rng, 1+rng.Intn(120))
		eps := []float64{0.05, 0.10, 0.25}[rng.Intn(3)]
		if scratch.WithinNormalized(a, b, eps) {
			if len(b) < MinCandidateLen(len(a), eps) || len(b) > MaxCandidateLen(len(a), eps) {
				t.Fatalf("len(a)=%d len(b)=%d eps=%.2f within eps but outside window [%d,%d]",
					len(a), len(b), eps, MinCandidateLen(len(a), eps), MaxCandidateLen(len(a), eps))
			}
		}
	}
}

// TestScratchAllocFree: after warm-up, Scratch methods must not allocate.
func TestScratchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randSeq(rng, 200), randSeq(rng, 210)
	var scratch Scratch
	scratch.Distance(a, b) // warm up rows
	if allocs := testing.AllocsPerRun(50, func() {
		scratch.Distance(a, b)
		scratch.DistanceWithin(a, b, 30)
		scratch.WithinNormalized(a, b, 0.1)
	}); allocs != 0 {
		t.Errorf("Scratch path allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkDistanceWithin contrasts the allocating and scratch-reusing
// forms of the clustering hot path.
func BenchmarkDistanceWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randSeq(rng, 400), randSeq(rng, 405)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DistanceWithin(x, y, 40)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.DistanceWithin(x, y, 40)
		}
	})
	// The shape that dominates a cold compile: a ~2,500-symbol sequence
	// against a junk-inserted variant of itself that ends within eps 0.10,
	// so early abandon never fires and the whole band is computed.
	b.Run("junk-within", func(b *testing.B) {
		p := alphaSeq(rng, 2500, 60, 16)
		q := junkVariant(rng, p, 180, 60, 16)
		maxDist := int(0.1 * float64(max(len(p), len(q))))
		full := Distance(p, q)
		if full > maxDist || full < maxDist/2 {
			b.Fatalf("junk variant at distance %d, want within [%d, %d]", full, maxDist/2, maxDist)
		}
		var s Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d, ok := s.DistanceWithin(p, q, maxDist); !ok || d != full {
				b.Fatalf("DistanceWithin = (%d, %v), want (%d, true)", d, ok, full)
			}
		}
	})
}

// referenceDistanceWithin is a scalar banded DP, kept as an independent
// reference: it fills the ±maxDist band cell by cell, with per-cell inf
// guards, a bounds branch at the band edge, and a branchy three-way min.
// TestDistanceWithinMatchesReference pins the bit-parallel kernel to it
// on the full (distance, ok) contract.
func referenceDistanceWithin(s *Scratch, a, b []jstoken.Symbol, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > maxDist {
		return 0, false
	}
	a, b = trimCommon(a, b)
	if len(a) == 0 {
		return len(b), true
	}

	const inf = int(^uint(0) >> 1)
	width := 2*maxDist + 1
	prev, curr := s.rows(width)
	for k := 0; k < width; k++ {
		j := 0 - maxDist + k
		if j >= 0 && j <= len(b) {
			prev[k] = j
		} else {
			prev[k] = inf
		}
	}
	for i := 1; i <= len(a); i++ {
		rowMin := inf
		ai := a[i-1]
		kLo := 0
		if maxDist > i {
			kLo = maxDist - i
		}
		kHi := width
		if over := i + maxDist - len(b); over > 0 {
			kHi = width - over
		}
		left := inf
		k := kLo
		if kLo > 0 {
			curr[kLo-1] = inf
		}
		if i <= maxDist {
			curr[kLo] = i
			rowMin = i
			left = i
			k = kLo + 1
		}
		off := i - maxDist - 1
		for ; k < kHi; k++ {
			best := inf
			if pk := prev[k]; pk != inf {
				if ai == b[off+k] {
					best = pk
				} else {
					best = pk + 1
				}
			}
			if k+1 < width {
				if p1 := prev[k+1]; p1 != inf && p1+1 < best {
					best = p1 + 1
				}
			}
			if left != inf && left+1 < best {
				best = left + 1
			}
			curr[k] = best
			left = best
			if best < rowMin {
				rowMin = best
			}
		}
		if kHi < width {
			curr[kHi] = inf
		}
		if rowMin > maxDist {
			return 0, false
		}
		prev, curr = curr, prev
	}
	s.prev, s.curr = prev[:cap(prev)], curr[:cap(curr)]
	k := len(b) - len(a) + maxDist
	if k < 0 || k >= width || prev[k] == inf || prev[k] > maxDist {
		return 0, false
	}
	return prev[k], true
}

// TestDistanceWithinMatchesReference pins the bit-parallel kernel against
// the scalar reference across random near-duplicate pairs, every bound from 0
// to beyond the true distance, and the degenerate shapes (empty, equal,
// single-symbol, maximal junk).
func TestDistanceWithinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	randSeq := func(n int) []jstoken.Symbol {
		out := make([]jstoken.Symbol, n)
		for i := range out {
			out[i] = jstoken.Symbol(rng.Intn(7) + 1)
		}
		return out
	}
	mutate := func(a []jstoken.Symbol, edits int) []jstoken.Symbol {
		out := append([]jstoken.Symbol(nil), a...)
		for e := 0; e < edits; e++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(out) > 0: // substitute
				out[rng.Intn(len(out))] = jstoken.Symbol(rng.Intn(7) + 1)
			case op == 1: // insert
				p := rng.Intn(len(out) + 1)
				out = append(out[:p], append([]jstoken.Symbol{jstoken.Symbol(rng.Intn(7) + 1)}, out[p:]...)...)
			case op == 2 && len(out) > 0: // delete
				p := rng.Intn(len(out))
				out = append(out[:p], out[p+1:]...)
			}
		}
		return out
	}
	var got, want Scratch
	check := func(a, b []jstoken.Symbol, maxDist int) {
		t.Helper()
		gd, gok := got.DistanceWithin(a, b, maxDist)
		wd, wok := referenceDistanceWithin(&want, a, b, maxDist)
		if gd != wd || gok != wok {
			t.Fatalf("DistanceWithin(len %d, len %d, maxDist=%d) = (%d, %v), reference (%d, %v)",
				len(a), len(b), maxDist, gd, gok, wd, wok)
		}
	}
	for trial := 0; trial < 400; trial++ {
		a := randSeq(rng.Intn(60))
		b := mutate(a, rng.Intn(8))
		for maxDist := 0; maxDist <= 10; maxDist++ {
			check(a, b, maxDist)
		}
	}
	// Unrelated sequences: every cell in the band saturates.
	for trial := 0; trial < 50; trial++ {
		check(randSeq(rng.Intn(40)), randSeq(rng.Intn(40)), rng.Intn(6))
	}
	check(nil, nil, 0)
	check(nil, syms(1, 2, 3), 3)
	check(syms(1), syms(2), 1)
}

// checkWithin asserts the full (distance, ok) contract of DistanceWithin
// against the full DP, in both argument orders, for one bound.
func checkWithin(t *testing.T, s *Scratch, a, b []jstoken.Symbol, full, maxDist int) {
	t.Helper()
	for _, swap := range []bool{false, true} {
		x, y := a, b
		if swap {
			x, y = b, a
		}
		got, ok := s.DistanceWithin(x, y, maxDist)
		want, wantOK := full, full <= maxDist
		if !wantOK {
			want = 0
		}
		if got != want || ok != wantOK {
			t.Fatalf("DistanceWithin(len %d, len %d, maxDist=%d) = (%d, %v), full DP %d",
				len(x), len(y), maxDist, got, ok, full)
		}
	}
}

// alphaSeq draws n symbols from an alphabet of size alpha starting at base,
// so callers can exercise the webkit range (symbols above 255) and the top
// of the uint16 range.
func alphaSeq(rng *rand.Rand, n, alpha, base int) []jstoken.Symbol {
	out := make([]jstoken.Symbol, n)
	for i := range out {
		out[i] = jstoken.Symbol(base + rng.Intn(alpha))
	}
	return out
}

// junkVariant returns a near-duplicate of a: runs of junk symbols inserted
// (the polymorphic-packer shape), plus scattered substitutions and
// deletions, about edits operations in all.
func junkVariant(rng *rand.Rand, a []jstoken.Symbol, edits, alpha, base int) []jstoken.Symbol {
	out := append([]jstoken.Symbol(nil), a...)
	for e := 0; e < edits; {
		switch op := rng.Intn(4); {
		case op == 0 && len(out) > 0:
			out[rng.Intn(len(out))] = jstoken.Symbol(base + rng.Intn(alpha))
			e++
		case op == 1 && len(out) > 0:
			p := rng.Intn(len(out))
			out = append(out[:p], out[p+1:]...)
			e++
		default:
			run := 1 + rng.Intn(12)
			p := rng.Intn(len(out) + 1)
			junk := alphaSeq(rng, run, alpha, base)
			out = append(out[:p], append(junk, out[p:]...)...)
			e += run
		}
	}
	return out
}

// TestDistanceWithinMultiBlock extends the differential check past the
// 64-row word of the bit-parallel kernel: long near-duplicates with bands
// up to 300, lengths at the word edges, bounds of 0 and beyond the
// lengths, pairs that trim to empty, and wide alphabets.
func TestDistanceWithinMultiBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	var s Scratch
	alphabets := []struct{ alpha, base int }{
		{1, 1}, {2, 1}, {8, 1}, {60, 16}, {300, 1}, {300, 600}, {40, 65496},
	}
	bounds := func(full, la, lb int) []int {
		return []int{0, 1, full - 1, full, full + 1, rng.Intn(301), la, lb, la + lb, 1 << 62}
	}
	check := func(t *testing.T, a, b []jstoken.Symbol) {
		t.Helper()
		full := Distance(a, b)
		for _, k := range bounds(full, len(a), len(b)) {
			if k >= 0 {
				checkWithin(t, &s, a, b, full, k)
			}
		}
	}
	t.Run("long", func(t *testing.T) {
		n := 60
		if testing.Short() {
			n = 12
		}
		for trial := 0; trial < n; trial++ {
			al := alphabets[rng.Intn(len(alphabets))]
			a := alphaSeq(rng, 200+rng.Intn(2800), al.alpha, al.base)
			b := junkVariant(rng, a, rng.Intn(300), al.alpha, al.base)
			check(t, a, b)
		}
	})
	t.Run("word-edges", func(t *testing.T) {
		for _, la := range []int{1, 63, 64, 65, 127, 128, 129, 192, 193} {
			for trial := 0; trial < 20; trial++ {
				al := alphabets[rng.Intn(len(alphabets))]
				a := alphaSeq(rng, la, al.alpha, al.base)
				check(t, a, junkVariant(rng, a, rng.Intn(1+la/4), al.alpha, al.base))
				// Unrelated pairs of word-edge lengths: every band cell
				// saturates and early abandon decides.
				check(t, a, alphaSeq(rng, la+rng.Intn(3), al.alpha, al.base))
			}
		}
	})
	t.Run("trims-to-empty", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			core := alphaSeq(rng, rng.Intn(150), 5, 1)
			p := rng.Intn(len(core) + 1)
			ins := alphaSeq(rng, rng.Intn(80), 5, 1)
			b := append(append(append([]jstoken.Symbol(nil), core[:p]...), ins...), core[p:]...)
			check(t, core, b)
		}
	})
}

// FuzzDistanceWithin checks the bit-parallel kernel against the full DP on
// arbitrary (a, b, maxDist). Each byte is one symbol, lifted by hi·256 so
// the fuzzer also reaches symbols above 255.
func FuzzDistanceWithin(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"), uint8(0), 3)
	f.Add([]byte(""), []byte("abc"), uint8(1), 2)
	f.Add(make([]byte, 65), make([]byte, 64), uint8(255), 0)
	f.Add([]byte("abcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabc"),
		[]byte("abcabcabcabcabcXXabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcabcYabc"), uint8(2), 4)
	var s Scratch
	f.Fuzz(func(t *testing.T, x, y []byte, hi uint8, maxDist int) {
		if len(x) > 400 || len(y) > 400 {
			return
		}
		lift := func(p []byte) []jstoken.Symbol {
			out := make([]jstoken.Symbol, len(p))
			for i, c := range p {
				out[i] = jstoken.Symbol(hi)<<8 | jstoken.Symbol(c)
			}
			return out
		}
		a, b := lift(x), lift(y)
		if maxDist < 0 {
			if _, ok := s.DistanceWithin(a, b, maxDist); ok {
				t.Fatalf("negative bound %d accepted", maxDist)
			}
			return
		}
		checkWithin(t, &s, a, b, Distance(a, b), maxDist)
	})
}
