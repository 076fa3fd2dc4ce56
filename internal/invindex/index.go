// Package invindex is the search substrate behind the shard profiles: a
// from-scratch inverted index (document ingestion, postings lists, BM25
// ranking) with document-at-a-time (DAAT/MaxScore) query evaluation over
// document-partitioned shards.
//
// In the paper's setting each machine hosts index shards whose static
// footprint is the index size and whose dynamic load is query-processing
// work. This package supplies those quantities from real index mechanics
// (see ProfileShards), standing in for the production indexes the authors
// used (DESIGN.md §3).
package invindex

import (
	"math"
	"sort"
)

// DocID identifies a document within one index (shard-local).
type DocID int32

// Posting is one (document, term-frequency) pair in a postings list.
type Posting struct {
	Doc DocID
	TF  int32
}

// termInfo is the per-term state: the postings list (sorted by DocID) and
// the maximum term frequency (used for score upper bounds).
type termInfo struct {
	postings []Posting
	maxTF    int32
}

// Standard BM25 parameters.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Index is an in-memory inverted index with BM25 scoring.
type Index struct {
	dict     map[string]int
	terms    []termInfo
	docLen   []int32
	totalLen int64
}

// NewIndex creates an empty index scored with standard BM25 parameters
// (k1 = 1.2, b = 0.75).
func NewIndex() *Index {
	return &Index{dict: make(map[string]int)}
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docLen) }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumPostings returns the total posting count — the index's dominant size
// component, whose compressed form is its disk footprint.
func (ix *Index) NumPostings() int {
	n := 0
	for i := range ix.terms {
		n += len(ix.terms[i].postings)
	}
	return n
}

// AvgDocLen returns the mean document length.
func (ix *Index) AvgDocLen() float64 {
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// Add indexes one document given as a token sequence and returns its DocID.
func (ix *Index) Add(tokens []string) DocID {
	id := DocID(len(ix.docLen))
	ix.docLen = append(ix.docLen, int32(len(tokens)))
	ix.totalLen += int64(len(tokens))

	// accumulate term frequencies for this document
	tf := make(map[int]int32, len(tokens))
	for _, tok := range tokens {
		tid, ok := ix.dict[tok]
		if !ok {
			tid = len(ix.terms)
			ix.dict[tok] = tid
			ix.terms = append(ix.terms, termInfo{})
		}
		tf[tid]++
	}
	for tid, f := range tf {
		ti := &ix.terms[tid]
		ti.postings = append(ti.postings, Posting{Doc: id, TF: f})
		if f > ti.maxTF {
			ti.maxTF = f
		}
	}
	return id
}

// idf returns the BM25 inverse document frequency of term id tid.
func (ix *Index) idf(tid int) float64 {
	df := float64(len(ix.terms[tid].postings))
	n := float64(ix.NumDocs())
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// bm25 scores one posting.
func (ix *Index) bm25(idf float64, tf int32, docLen int32) float64 {
	f := float64(tf)
	norm := bm25K1 * (1 - bm25B + bm25B*float64(docLen)/ix.AvgDocLen())
	return idf * f * (bm25K1 + 1) / (f + norm)
}

// maxScore returns an upper bound on any document's BM25 contribution from
// term tid, used by the MaxScore pruning in DAAT evaluation.
func (ix *Index) maxScore(tid int) float64 {
	ti := &ix.terms[tid]
	f := float64(ti.maxTF)
	idf := ix.idf(tid)
	// minimal norm (shortest possible doc) maximizes the score
	minNorm := bm25K1 * (1 - bm25B)
	return idf * f * (bm25K1 + 1) / (f + minNorm)
}

// ScoredDoc is one ranked result.
type ScoredDoc struct {
	Doc   DocID
	Score float64
}

// Stats reports the work performed by one query evaluation; PostingsScanned
// is the cost measure used to derive shard load profiles.
type Stats struct {
	PostingsScanned int
	DocsScored      int
}

// resultHeap is a min-heap of the current top-k results (smallest score at
// the root so it can be evicted cheaply).
type resultHeap []ScoredDoc

func (h resultHeap) worse(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc // larger doc id = worse on ties
}

func (h resultHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h resultHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h.worse(l, small) {
			small = l
		}
		if r < len(h) && h.worse(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// push adds a result, keeping at most k entries (evicting the worst).
// It returns the current threshold (k-th best score, or 0 if not full).
func (h *resultHeap) push(d ScoredDoc, k int) float64 {
	if len(*h) < k {
		*h = append(*h, d)
		h.siftUp(len(*h) - 1)
	} else if (*h)[0].Score < d.Score || ((*h)[0].Score == d.Score && (*h)[0].Doc > d.Doc) {
		(*h)[0] = d
		h.siftDown(0)
	}
	if len(*h) < k {
		return 0
	}
	return (*h)[0].Score
}

// sorted drains the heap into descending score order.
func (h resultHeap) sorted() []ScoredDoc {
	out := append([]ScoredDoc(nil), h...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

// resolveTerms resolves query terms to ids, dropping unknown terms.
func (ix *Index) resolveTerms(terms []string) []int {
	ids := make([]int, 0, len(terms))
	seen := make(map[int]bool, len(terms))
	for _, t := range terms {
		if tid, ok := ix.dict[t]; ok && !seen[tid] {
			ids = append(ids, tid)
			seen[tid] = true
		}
	}
	return ids
}
