// Package huffman implements a canonical Huffman byte coder and the CCRP
// model of Wolfe & Chanin [Wolfe92]: instruction bytes are Huffman-encoded
// per cache line, lines are padded to byte boundaries, and a Line Address
// Table (LAT) maps uncompressed line addresses to compressed locations.
// This is the related-work comparator of §2.3.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
)

// maxCodeLen bounds canonical code lengths so codes fit comfortably in a
// uint64 accumulator. Program byte distributions stay far below this.
const maxCodeLen = 56

// Code is a canonical Huffman code table.
type Code struct {
	Lens  [256]uint8  // code length per symbol, 0 = absent
	Codes [256]uint64 // canonical code value per symbol

	// The decode table, filled by assignCanonical: codes of length l run
	// from first[l] through first[l]+count[l]-1, and their symbols sit in
	// canonical order in syms starting at offset[l].
	first  [maxCodeLen + 1]uint64
	count  [maxCodeLen + 1]uint16
	offset [maxCodeLen + 1]uint16
	syms   [256]byte
	maxLen int // longest code length present
}

// hnode is a Huffman tree node; sym is -1 for internal nodes.
type hnode struct {
	weight      int64
	sym         int
	left, right int
}

// Build constructs a canonical Huffman code from byte frequencies.
func Build(freq *[256]int64) (*Code, error) {
	var nodes []hnode
	var live []int
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, hnode{weight: f, sym: s, left: -1, right: -1})
			live = append(live, len(nodes)-1)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("huffman: empty input")
	}
	c := &Code{}
	if len(live) == 1 {
		// Degenerate alphabet: one symbol, one-bit code.
		c.Lens[nodes[live[0]].sym] = 1
		assignCanonical(c)
		return c, nil
	}
	h := &nodeHeap{nodes: &nodes, idx: live}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		nodes = append(nodes, hnode{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: a, right: b})
		heap.Push(h, len(nodes)-1)
	}
	root := h.idx[0]
	// Depth-first code length assignment.
	type visit struct {
		n     int
		depth uint8
	}
	stack := []visit{{root, 0}}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[v.n]
		if nd.sym >= 0 {
			if v.depth == 0 {
				v.depth = 1
			}
			if v.depth > maxCodeLen {
				return nil, fmt.Errorf("huffman: code length %d exceeds limit", v.depth)
			}
			c.Lens[nd.sym] = v.depth
			continue
		}
		stack = append(stack, visit{nd.left, v.depth + 1}, visit{nd.right, v.depth + 1})
	}
	assignCanonical(c)
	return c, nil
}

// NewCodeFromLens rebuilds a canonical code from its per-symbol lengths —
// the form the code table is serialized in (the canonical property means
// lengths alone determine the code values).
func NewCodeFromLens(lens [256]uint8) (*Code, error) {
	c := &Code{Lens: lens}
	n := 0
	for s, l := range lens {
		if l > maxCodeLen {
			return nil, fmt.Errorf("huffman: symbol %d code length %d exceeds limit", s, l)
		}
		if l > 0 {
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("huffman: empty code table")
	}
	assignCanonical(c)
	return c, nil
}

// nodeHeap orders node indices by weight (ties by index for determinism).
type nodeHeap struct {
	nodes *[]hnode
	idx   []int
}

func (h *nodeHeap) Len() int { return len(h.idx) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	na, nb := (*h.nodes)[a], (*h.nodes)[b]
	if na.weight != nb.weight {
		return na.weight < nb.weight
	}
	return a < b
}
func (h *nodeHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *nodeHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// assignCanonical fills Codes and the decode table from Lens using the
// canonical ordering (shorter codes first, ties by symbol value). It is the
// one place canonical order is computed.
func assignCanonical(c *Code) {
	for _, l := range c.Lens {
		if l > 0 {
			c.count[l]++
		}
	}
	code, off := uint64(0), uint16(0)
	for l := 1; l <= maxCodeLen; l++ {
		code <<= 1
		c.first[l], c.offset[l] = code, off
		code += uint64(c.count[l])
		off += c.count[l]
		if c.count[l] > 0 {
			c.maxLen = l
		}
	}
	var filled [maxCodeLen + 1]uint16
	for s, l := range c.Lens {
		if l > 0 {
			i := filled[l]
			filled[l]++
			c.syms[c.offset[l]+i] = byte(s)
			c.Codes[s] = c.first[l] + uint64(i)
		}
	}
}

// EncodedBits returns the encoded size of data in bits under the code.
func (c *Code) EncodedBits(data []byte) int {
	bits := 0
	for _, b := range data {
		bits += int(c.Lens[b])
	}
	return bits
}

// Encode compresses data (MSB-first bit packing).
func (c *Code) Encode(data []byte) []byte {
	var out []byte
	var acc uint64
	var nacc uint
	for _, b := range data {
		l := uint(c.Lens[b])
		acc = acc<<l | c.Codes[b]
		nacc += l
		for nacc >= 8 {
			out = append(out, byte(acc>>(nacc-8)))
			nacc -= 8
		}
	}
	if nacc > 0 {
		out = append(out, byte(acc<<(8-nacc)))
	}
	return out
}

// Decode expands exactly n symbols from the encoded stream, reading one
// bit at a time until the code read so far falls inside a length's range
// of the decode table.
func (c *Code) Decode(enc []byte, n int) ([]byte, error) {
	out := make([]byte, n)
	pos := 0 // bit position in enc
	for i := range out {
		var code uint64
		for l := 1; ; l++ {
			if l > c.maxLen {
				return nil, errors.New("huffman: invalid code")
			}
			if pos >= 8*len(enc) {
				return nil, errors.New("huffman: truncated stream")
			}
			code = code<<1 | uint64(enc[pos/8]>>(7-pos%8)&1)
			pos++
			if d := code - c.first[l]; d < uint64(c.count[l]) {
				out[i] = c.syms[c.offset[l]+uint16(d)]
				break
			}
		}
	}
	return out, nil
}
