package dictionary

// Selection is the compact, cacheable form of a build's outcome: the
// entries in selection order plus, for every codeword, the text position
// it starts at and the rank of the entry it stands for (8 bytes each).
//
// Every strategy's selection loop only stops at Config.MaxEntries, so the
// build capped at n makes exactly the first n selections of the uncapped
// build. One Selection of the uncapped build therefore yields the Result
// of every capped build of the same text and configuration through
// Prefix, without re-running enumeration or selection.
type Selection struct {
	entries   []Entry  // selection order; Words shared with the source Result
	codewords []placed // in text order
}

// placed is one codeword of a Selection.
type placed struct {
	start, rank int32
}

// Selection returns the compact form of a Result produced by Build. Texts
// are bounded far below 2^31 words (every image format counts them in 32
// bits), so starts and ranks fit int32.
func (r *Result) Selection() *Selection {
	n := 0
	for _, it := range r.Items {
		if it.IsCodeword {
			n++
		}
	}
	s := &Selection{entries: r.Entries, codewords: make([]placed, 0, n)}
	for _, it := range r.Items {
		if it.IsCodeword {
			s.codewords = append(s.codewords, placed{int32(it.OrigIdx), int32(it.Entry)})
		}
	}
	return s
}

// Prefix returns exactly the Result Build would produce over text with
// MaxEntries = n (n <= 0 means unlimited), given that s is the Selection
// of the build without that cap. Entries ranked n and above are dropped
// and their codewords expand back into their own words.
func (s *Selection) Prefix(text []uint32, n int) *Result {
	if n <= 0 || n > len(s.entries) {
		n = len(s.entries)
	}
	res := &Result{}
	items := len(text)
	if n > 0 {
		res.Entries = append([]Entry(nil), s.entries[:n]...)
		for _, e := range res.Entries {
			res.CoveredInsns += e.Uses * len(e.Words)
			items += e.Uses - e.Uses*len(e.Words)
		}
	}
	res.Items = make([]Item, 0, items)
	next := 0 // first text word not yet emitted
	for _, cw := range s.codewords {
		for ; next < int(cw.start); next++ {
			res.Items = append(res.Items, Item{Word: text[next], OrigIdx: next})
		}
		if int(cw.rank) < n {
			res.Items = append(res.Items, Item{IsCodeword: true, Entry: int(cw.rank), OrigIdx: next})
			next += len(s.entries[cw.rank].Words)
		}
		// A dropped codeword's words are emitted raw by the next catch-up.
	}
	for ; next < len(text); next++ {
		res.Items = append(res.Items, Item{Word: text[next], OrigIdx: next})
	}
	return res
}
