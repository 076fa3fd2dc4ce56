package invindex

import (
	"math"
	"sort"
)

// SearchDAAT evaluates a disjunctive BM25 query document-at-a-time with
// MaxScore pruning: terms are ordered by their score upper bounds, and once
// the top-k threshold exceeds the combined bound of the low-impact
// ("non-essential") terms, documents appearing only in those lists are
// skipped entirely.
func (ix *Index) SearchDAAT(terms []string, k int) ([]ScoredDoc, Stats) {
	var st Stats
	tids := ix.resolveTerms(terms)
	if len(tids) == 0 || k <= 0 {
		return nil, st
	}

	// cursor per term, ordered by ascending max score (non-essential first)
	type cursor struct {
		postings []Posting
		pos      int
		idf      float64
		bound    float64
	}
	curs := make([]*cursor, len(tids))
	for i, tid := range tids {
		curs[i] = &cursor{
			postings: ix.terms[tid].postings,
			idf:      ix.idf(tid),
			bound:    ix.maxScore(tid),
		}
	}
	sort.Slice(curs, func(i, j int) bool { return curs[i].bound < curs[j].bound })

	// prefix[i] = sum of bounds of curs[0..i]
	prefix := make([]float64, len(curs))
	sum := 0.0
	for i, c := range curs {
		sum += c.bound
		prefix[i] = sum
	}

	var h resultHeap
	threshold := 0.0
	// first essential list index: lists below it cannot alone beat the
	// threshold; updated as the threshold grows.
	firstEss := 0
	for {
		for firstEss < len(curs) && prefix[firstEss] <= threshold {
			firstEss++
		}
		if firstEss >= len(curs) {
			break // even all lists together cannot beat the threshold
		}
		// next candidate: min current doc among essential lists
		next := DocID(math.MaxInt32)
		for _, c := range curs[firstEss:] {
			if c.pos < len(c.postings) && c.postings[c.pos].Doc < next {
				next = c.postings[c.pos].Doc
			}
		}
		if next == DocID(math.MaxInt32) {
			break // essential lists exhausted
		}
		// Score essential lists first (sequential advance), then probe
		// non-essential lists from the highest bound down, abandoning the
		// document as soon as its remaining potential cannot beat the
		// threshold.
		score := 0.0
		for _, c := range curs[firstEss:] {
			if c.pos < len(c.postings) && c.postings[c.pos].Doc == next {
				score += ix.bm25(c.idf, c.postings[c.pos].TF, ix.docLen[next])
				c.pos++
				st.PostingsScanned++
			}
		}
		pruned := false
		for i := firstEss - 1; i >= 0; i-- {
			if score+prefix[i] <= threshold {
				pruned = true // even all remaining bounds cannot catch up
				break
			}
			c := curs[i]
			c.pos += sort.Search(len(c.postings)-c.pos, func(j int) bool {
				return c.postings[c.pos+j].Doc >= next
			})
			st.PostingsScanned++ // one seek charged per list probe
			if c.pos < len(c.postings) && c.postings[c.pos].Doc == next {
				score += ix.bm25(c.idf, c.postings[c.pos].TF, ix.docLen[next])
			}
		}
		st.DocsScored++
		if !pruned {
			threshold = h.push(ScoredDoc{next, score}, k)
		}
	}
	return h.sorted(), st
}
