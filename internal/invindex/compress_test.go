package invindex

import (
	"math"
	"math/rand"
	"testing"
)

// refCompressedBytes is the reference encoder compressedBytes must agree
// with: it builds every postings list's vbyte encoding (doc-ID deltas from
// prev = −1, then TFs, 7 bits per byte) and adds one 16-byte skip entry per
// started block of 128 postings, as the deleted Compress did.
func refCompressedBytes(ix *Index) int {
	var data []byte
	skips := 0
	for _, ti := range ix.terms {
		prev := DocID(-1)
		for i, p := range ti.postings {
			if i%128 == 0 {
				skips++
			}
			for _, x := range []uint32{uint32(p.Doc - prev), uint32(p.TF)} {
				for ; x >= 0x80; x >>= 7 {
					data = append(data, byte(x)|0x80)
				}
				data = append(data, byte(x))
			}
			prev = p.Doc
		}
	}
	return len(data) + 16*skips
}

// straddlePostings produces a sorted postings list of n entries whose
// doc-ID deltas and TFs sit on either side of the vbyte length boundaries
// 2⁷, 2¹⁴, 2²¹ and 2²⁸. Deltas fall back to small gaps once the remaining
// DocID range would not fit the rest of the list.
func straddlePostings(r *rand.Rand, n int) []Posting {
	bounds := []int{1 << 7, 1 << 14, 1 << 21, 1 << 28}
	straddle := func() int { return bounds[r.Intn(len(bounds))] - 1 + r.Intn(2) }
	out := make([]Posting, n)
	doc := -1
	for i := range out {
		gap := straddle()
		if room := math.MaxInt32 - doc - (n - i); gap > room {
			gap = 1 + r.Intn(min(room, 1<<7))
		}
		doc += gap
		out[i] = Posting{Doc: DocID(doc), TF: int32(straddle())}
	}
	return out
}

// corpusIndex indexes a 1 200-document Zipf corpus into one index.
func corpusIndex(t *testing.T) *Index {
	t.Helper()
	docs, err := GenerateCorpus(CorpusConfig{Docs: 1200, Vocab: 500, ZipfS: 1.2, MeanDocLen: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	return ix
}

func TestCompressedBytesMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 127, 128, 129, 1000} {
		for trial := 0; trial < 8; trial++ {
			ix := &Index{terms: []termInfo{{postings: straddlePostings(r, n)}}}
			if got, want := compressedBytes(ix), refCompressedBytes(ix); got != want {
				t.Fatalf("n=%d trial %d: compressedBytes = %d, encoder = %d", n, trial, got, want)
			}
		}
	}
	// A whole corpus index: many terms, mostly short lists.
	ix := corpusIndex(t)
	if got, want := compressedBytes(ix), refCompressedBytes(ix); got != want {
		t.Fatalf("corpus index: compressedBytes = %d, encoder = %d", got, want)
	}
	if compressedBytes(NewIndex()) != 0 {
		t.Error("empty index should have no compressed bytes")
	}
}

func TestCompressionShrinks(t *testing.T) {
	ix := corpusIndex(t)
	raw := ix.NumPostings() * 8
	if got := compressedBytes(ix); got >= raw {
		t.Errorf("compressed %d ≥ raw %d", got, raw)
	}
}
