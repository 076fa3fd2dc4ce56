package invindex

// This file sizes postings lists as real engines store them: variable-byte
// (vbyte) encoded document-ID deltas and term frequencies, organized in
// blocks with one skip entry each. The compressed size is the honest disk
// footprint of a shard (used by ProfileShards); only the size is needed, so
// the encoding itself is never built.

const (
	// blockSize is the number of postings per skip block.
	blockSize = 128
	// skipEntryBytes is the size of one block's skip entry (last DocID,
	// byte offset, delta base, postings before the block).
	skipEntryBytes = 16
)

// compressedBytes returns the total compressed postings size of ix: for
// each term, Σ over its postings of vbyteLen(doc − prev) + vbyteLen(tf)
// with prev starting at −1, plus one skip entry per block. Index.Add only
// produces strictly increasing DocIDs with positive TFs, so every delta
// and TF is a valid unsigned value.
func compressedBytes(ix *Index) int {
	total := 0
	for i := range ix.terms {
		ps := ix.terms[i].postings
		prev := DocID(-1)
		for _, p := range ps {
			total += vbyteLen(uint32(p.Doc-prev)) + vbyteLen(uint32(p.TF))
			prev = p.Doc
		}
		total += skipEntryBytes * ((len(ps) + blockSize - 1) / blockSize)
	}
	return total
}

// vbyteLen returns the encoded length of x in variable-byte encoding (7
// bits per byte, high bit = continuation).
func vbyteLen(x uint32) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
