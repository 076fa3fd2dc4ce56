package invindex

import "testing"

// benchIndex builds a moderately sized index and query set once.
func benchIndex(b *testing.B) (*Index, [][]string) {
	b.Helper()
	docs, err := GenerateCorpus(CorpusConfig{
		Docs: 5000, Vocab: 8000, ZipfS: 1.15, MeanDocLen: 60, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	queries, err := GenerateQueries(QueryConfig{
		Queries: 200, Vocab: 8000, ZipfS: 1.05, MaxTerms: 4, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ix, queries
}

func BenchmarkSearchTAAT(b *testing.B) {
	ix, queries := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = searchTAAT(ix, queries[i%len(queries)], 10)
	}
}

func BenchmarkSearchDAAT(b *testing.B) {
	ix, queries := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ix.SearchDAAT(queries[i%len(queries)], 10)
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	docs, err := GenerateCorpus(CorpusConfig{
		Docs: 1000, Vocab: 4000, ZipfS: 1.15, MeanDocLen: 60, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ix := NewIndex()
	for i := 0; i < b.N; i++ {
		ix.Add(docs[i%len(docs)])
	}
}
