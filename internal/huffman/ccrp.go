package huffman

// The CCRP model: the Compressed Code RISC Processor [Wolfe92][Wolfe94]
// trains a single Huffman code on the whole program's instruction bytes and
// compresses each cache line independently; compressed lines are padded to
// byte boundaries (the cache refill engine needs byte-addressable line
// starts); and a Line Address Table maps each uncompressed line address to
// its compressed location. The paper's §2.3 criticism — byte-granularity
// coding plus LAT overhead — falls straight out of this model. Its shape is
// the Ext. A comparison's; an image stores both values, so one read from a
// file is checked rather than assumed.
const (
	// LineSize is the uncompressed bytes per cache line (Wolfe used 32).
	LineSize = 32

	// LATBytesPerLine models the compact LAT encoding: Wolfe's scheme
	// stores one full address per group of 8 lines plus short offsets,
	// roughly 3 bytes per line.
	LATBytesPerLine = 3
)
