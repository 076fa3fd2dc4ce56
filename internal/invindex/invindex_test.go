package invindex

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"rexchange/internal/cluster"
)

// searchTAAT evaluates a disjunctive BM25 query term-at-a-time: every
// posting of every query term is accumulated into a score table, then the
// top k documents are selected. Simple and exhaustive — the oracle and
// cost baseline that DAAT/MaxScore is checked against.
func searchTAAT(ix *Index, terms []string, k int) ([]ScoredDoc, Stats) {
	var st Stats
	tids := ix.resolveTerms(terms)
	if len(tids) == 0 || k <= 0 {
		return nil, st
	}
	acc := make(map[DocID]float64)
	for _, tid := range tids {
		idf := ix.idf(tid)
		for _, p := range ix.terms[tid].postings {
			acc[p.Doc] += ix.bm25(idf, p.TF, ix.docLen[p.Doc])
			st.PostingsScanned++
		}
	}
	st.DocsScored = len(acc)
	var h resultHeap
	for doc, score := range acc {
		h.push(ScoredDoc{doc, score}, k)
	}
	return h.sorted(), st
}

// postings returns the postings list for a term (nil if absent).
func postings(ix *Index, term string) []Posting {
	tid, ok := ix.dict[term]
	if !ok {
		return nil
	}
	return ix.terms[tid].postings
}

func tinyIndex() *Index {
	ix := NewIndex()
	ix.Add([]string{"the", "quick", "brown", "fox"})
	ix.Add([]string{"the", "lazy", "dog"})
	ix.Add([]string{"the", "quick", "dog", "dog"})
	return ix
}

func TestIndexBasics(t *testing.T) {
	ix := tinyIndex()
	if ix.NumDocs() != 3 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if ix.NumTerms() != 6 {
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
	// postings: the→3, quick→2, brown→1, fox→1, lazy→1, dog→2 = 10
	if ix.NumPostings() != 10 {
		t.Errorf("NumPostings = %d", ix.NumPostings())
	}
	if got := ix.AvgDocLen(); math.Abs(got-11.0/3) > 1e-12 {
		t.Errorf("AvgDocLen = %v", got)
	}
	ps := postings(ix, "dog")
	if len(ps) != 2 || ps[0].Doc != 1 || ps[1].Doc != 2 || ps[1].TF != 2 {
		t.Errorf("Postings(dog) = %v", ps)
	}
	if postings(ix, "unknown") != nil {
		t.Error("unknown term should have nil postings")
	}
}

func TestSearchTAATRanks(t *testing.T) {
	ix := tinyIndex()
	res, st := searchTAAT(ix, []string{"dog"}, 10)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	// doc 2 has tf=2 for "dog" but is longer; tf dominates here.
	if res[0].Doc != 2 {
		t.Errorf("top doc = %d, want 2", res[0].Doc)
	}
	if st.PostingsScanned != 2 {
		t.Errorf("scanned = %d", st.PostingsScanned)
	}
	// unknown-only query
	res, _ = searchTAAT(ix, []string{"nope"}, 10)
	if res != nil {
		t.Error("unknown term should return no results")
	}
	// k = 0
	if res, _ := searchTAAT(ix, []string{"dog"}, 0); res != nil {
		t.Error("k=0 should return nothing")
	}
}

func TestSearchDuplicateQueryTerms(t *testing.T) {
	ix := tinyIndex()
	a, _ := searchTAAT(ix, []string{"dog", "dog"}, 10)
	b, _ := searchTAAT(ix, []string{"dog"}, 10)
	if len(a) != len(b) || a[0].Score != b[0].Score {
		t.Error("duplicate query terms must be deduplicated")
	}
}

func TestDAATMatchesTAAT(t *testing.T) {
	docs, err := GenerateCorpus(CorpusConfig{Docs: 800, Vocab: 600, ZipfS: 1.2, MeanDocLen: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	queries, err := GenerateQueries(QueryConfig{Queries: 60, Vocab: 600, ZipfS: 1.1, MaxTerms: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		for _, k := range []int{1, 5, 20} {
			taat, _ := searchTAAT(ix, q, k)
			daat, _ := ix.SearchDAAT(q, k)
			if len(taat) != len(daat) {
				t.Fatalf("query %d k=%d: %d vs %d results", qi, k, len(taat), len(daat))
			}
			for i := range taat {
				if math.Abs(taat[i].Score-daat[i].Score) > 1e-9 {
					t.Fatalf("query %d k=%d pos %d: TAAT %v vs DAAT %v",
						qi, k, i, taat[i], daat[i])
				}
			}
		}
	}
}

func TestDAATPrunesWork(t *testing.T) {
	docs, err := GenerateCorpus(CorpusConfig{Docs: 3000, Vocab: 1000, ZipfS: 1.2, MeanDocLen: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	queries, _ := GenerateQueries(QueryConfig{Queries: 40, Vocab: 1000, ZipfS: 1.05, MaxTerms: 4, Seed: 6})
	var taatWork, daatWork int
	for _, q := range queries {
		_, st1 := searchTAAT(ix, q, 10)
		_, st2 := ix.SearchDAAT(q, 10)
		taatWork += st1.PostingsScanned
		daatWork += st2.PostingsScanned
	}
	if daatWork >= taatWork {
		t.Errorf("MaxScore did not prune: DAAT %d vs TAAT %d postings", daatWork, taatWork)
	}
}

func TestCorpusValidation(t *testing.T) {
	if _, err := GenerateCorpus(CorpusConfig{Docs: 0, Vocab: 1, MeanDocLen: 1, ZipfS: 1.1}); err == nil {
		t.Error("expected docs error")
	}
	if _, err := GenerateCorpus(CorpusConfig{Docs: 1, Vocab: 1, MeanDocLen: 1, ZipfS: 1.0}); err == nil {
		t.Error("expected zipf error")
	}
	if _, err := GenerateQueries(QueryConfig{Queries: 0, Vocab: 1, MaxTerms: 1, ZipfS: 1.1}); err == nil {
		t.Error("expected queries error")
	}
}

func TestBuildSharded(t *testing.T) {
	docs, _ := GenerateCorpus(CorpusConfig{Docs: 100, Vocab: 200, ZipfS: 1.2, MeanDocLen: 20, Seed: 7})
	si, err := BuildSharded(docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range si.Shards {
		total += sh.NumDocs()
	}
	if total != 100 {
		t.Errorf("sharded docs = %d", total)
	}
	if _, err := BuildSharded(docs, 0); err == nil {
		t.Error("expected shard-count error")
	}
	if _, err := BuildSharded(docs[:2], 4); err == nil {
		t.Error("expected too-few-docs error")
	}
}

func TestProfileShards(t *testing.T) {
	docs, _ := GenerateCorpus(CorpusConfig{Docs: 600, Vocab: 500, ZipfS: 1.2, MeanDocLen: 30, Seed: 9})
	si, err := BuildSharded(docs, 6)
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := GenerateQueries(QueryConfig{Queries: 80, Vocab: 500, ZipfS: 1.05, MaxTerms: 3, Seed: 10})
	shards, err := si.ProfileShards(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 6 {
		t.Fatalf("profiles = %d", len(shards))
	}
	for i, s := range shards {
		if s.ID != cluster.ShardID(i) {
			t.Errorf("shard %d ID mismatch", i)
		}
		if !(s.Static.Sum() > 0) || !(s.Load > 0) {
			t.Errorf("shard %d has degenerate profile: %+v", i, s)
		}
	}
	if _, err := si.ProfileShards(nil); err == nil {
		t.Error("expected workload error")
	}
}

// TestProfileShardsPinned holds the shard profiles of the three real call
// shapes — F5 at quick scale, examples/searchcluster, and the integration
// test's search-to-balance pipeline — to literals recorded before the
// codec, the persistence layer and ProfileConfig were cut: an FNV-1a hash
// over every shard's Name and the Float64bits of its Static and Load, then
// the shard count.
func TestProfileShardsPinned(t *testing.T) {
	withSize := func(docs, vocab, queries int) (CorpusConfig, QueryConfig) {
		c, q := DefaultCorpusConfig(), DefaultQueryConfig()
		c.Docs, c.Vocab = docs, vocab
		q.Vocab, q.Queries = vocab, queries
		return c, q
	}
	f5Corpus, f5Queries := withSize(1200, 1500, 100)
	exCorpus, exQueries := withSize(4000, 8000, 300)
	for _, tc := range []struct {
		name    string
		corpus  CorpusConfig
		queries QueryConfig
		shards  int
		want    uint64
	}{
		{"F5 quick", f5Corpus, f5Queries, 48, 0x659210f0b32fd6ee},
		{"examples/searchcluster", exCorpus, exQueries, 96, 0x73fadf52e2bedce2},
		{"TestSearchToBalancePipeline",
			CorpusConfig{Docs: 600, Vocab: 800, ZipfS: 1.2, MeanDocLen: 30, Seed: 2},
			QueryConfig{Queries: 60, Vocab: 800, ZipfS: 1.05, MaxTerms: 3, Seed: 3}, 24, 0xfb65b6548ef2071a},
	} {
		docs, err := GenerateCorpus(tc.corpus)
		if err != nil {
			t.Fatal(err)
		}
		si, err := BuildSharded(docs, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := GenerateQueries(tc.queries)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := si.ProfileShards(queries)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for _, s := range shards {
			h.Write([]byte(s.Name))
			for _, x := range s.Static {
				put(math.Float64bits(x))
			}
			put(math.Float64bits(s.Load))
		}
		put(uint64(len(shards)))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: profile hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

func TestClusterFromProfiles(t *testing.T) {
	docs, _ := GenerateCorpus(CorpusConfig{Docs: 600, Vocab: 500, ZipfS: 1.2, MeanDocLen: 30, Seed: 11})
	si, _ := BuildSharded(docs, 12)
	queries, _ := GenerateQueries(QueryConfig{Queries: 50, Vocab: 500, ZipfS: 1.05, MaxTerms: 3, Seed: 12})
	shards, err := si.ProfileShards(queries)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ClusterFromProfiles(shards, 4, 0.7, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible() {
		t.Error("profile-derived placement must be feasible")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := ClusterFromProfiles(shards, 0, 0.7, 1); err == nil {
		t.Error("expected machine-count error")
	}
	if _, err := ClusterFromProfiles(shards, 4, 1.5, 1); err == nil {
		t.Error("expected fill error")
	}
}

func TestCorpusAndQueriesDeterministic(t *testing.T) {
	cfg := CorpusConfig{Docs: 50, Vocab: 100, ZipfS: 1.2, MeanDocLen: 10, Seed: 77}
	a, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("doc %d length differs between same-seed runs", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("doc %d token %d differs", i, j)
			}
		}
	}
	qcfg := QueryConfig{Queries: 30, Vocab: 100, ZipfS: 1.1, MaxTerms: 3, Seed: 78}
	qa, _ := GenerateQueries(qcfg)
	qb, _ := GenerateQueries(qcfg)
	for i := range qa {
		if len(qa[i]) != len(qb[i]) {
			t.Fatalf("query %d differs between same-seed runs", i)
		}
	}
}

func TestIndexString(t *testing.T) {
	if s := tinyIndex().String(); s == "" {
		t.Error("String should describe the index")
	}
}
