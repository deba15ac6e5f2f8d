package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codeword"
)

// TestReadImagePayloadRejectsOutOfRangeMarks: marks are int32 in memory
// but U32 on the wire, so a decoded unit or word offset above MaxInt32 is
// an error, not a silently wrapped negative offset.
func TestReadImagePayloadRejectsOutOfRangeMarks(t *testing.T) {
	img := &Image{Name: "m", Scheme: codeword.Baseline, Stream: []byte{0, 0}, Units: 1,
		Marks: []Mark{{Unit: 0x12345678, Orig: 0x0abcdef0, Kind: MarkRaw}}}
	var buf bytes.Buffer
	if err := WriteImagePayload(&buf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadImagePayload(buf.Bytes()); err != nil {
		t.Fatalf("in-range marks rejected: %v", err)
	}
	for _, field := range [][]byte{{0x12, 0x34, 0x56, 0x78}, {0x0a, 0xbc, 0xde, 0xf0}} {
		raw := append([]byte(nil), buf.Bytes()...)
		at := bytes.Index(raw, field)
		if at < 0 {
			t.Fatalf("mark field %x not found in the payload", field)
		}
		raw[at] = 0x80
		_, err := ReadImagePayload(raw)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("mark field %x with the top bit set: err = %v, want out of range", field, err)
		}
	}
}
