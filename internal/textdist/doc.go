// Package textdist implements the edit-distance primitives Kizzle's
// clustering stage uses to compare abstract token sequences. The paper
// clusters samples with DBSCAN "using the edit distance between token
// strings as a means of determining the distance between any two samples"
// with a normalized threshold of 0.10.
//
// Two implementations are provided: a full O(n·m) dynamic program, kept
// as the reference, and DistanceWithin, which decides a caller-supplied
// bound k exactly. DBSCAN only needs to know whether two samples are
// within eps of each other, so DistanceWithin is the hot path. It runs
// Myers' bit-parallel edit distance (JACM 1999) in Hyyrö's blocked form
// (2003): the shorter sequence runs down the rows, 64 rows per uint64,
// and one column of the longer sequence costs about 17 word operations
// per active word, with no data-dependent branch. Only the words that
// meet the Ukkonen band (the diagonals a path of cost ≤ k can reach) are
// advanced, in the layout of Edlib (Šošić & Šikić 2017); words entering
// or leaving the band assume +1 deltas, which only overestimate off-band
// cells, so the result is exact. The run abandons as soon as a lower
// bound on every active cell exceeds k.
//
// Both are available as package functions (which allocate their state
// per call) and as methods on a reusable Scratch. Clustering issues
// millions of region queries per batch; a per-worker Scratch, which holds
// the match table and the DP words, makes the whole distance stage
// allocation-free after warm-up.
package textdist
