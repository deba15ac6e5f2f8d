package cli

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
)

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in   string
		want codeword.Scheme
		ok   bool
	}{
		{"baseline", codeword.Baseline, true},
		{"BASELINE", codeword.Baseline, true},
		{"2byte", codeword.Baseline, true},
		{"onebyte", codeword.OneByte, true},
		{"1byte", codeword.OneByte, true},
		{"nibble", codeword.Nibble, true},
		{"Nibble", codeword.Nibble, true},
		{"liao", codeword.Liao, true},
		{"huffman", 0, false},
		{"ccrp", 0, false}, // registered, but not a dictionary scheme
		{"lzw", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseScheme(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseScheme(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseScheme(%q) accepted", c.in)
		}
	}
	// Every advertised name must parse.
	for _, n := range SchemeNames() {
		if _, err := ParseScheme(n); err != nil {
			t.Errorf("advertised name %q does not parse", n)
		}
	}
}

// TestCodecNamesRoundTrip pins the registry's name round-trips: every
// registered codec parses back to itself by canonical name and by every
// alias, and every dictionary scheme's String() is its registry name.
func TestCodecNamesRoundTrip(t *testing.T) {
	if len(codec.Codecs()) < 6 {
		t.Fatalf("expected at least 6 registered codecs, have %v", codec.Names())
	}
	for _, c := range codec.Codecs() {
		got, err := codec.ByName(c.Name())
		if err != nil || got.Method() != c.Method() {
			t.Errorf("codec.ByName(%q) = %v, %v; want method %d", c.Name(), got, err, c.Method())
		}
		for _, a := range codec.Aliases(c.Name()) {
			got, err := codec.ByName(a)
			if err != nil || got.Method() != c.Method() {
				t.Errorf("codec.ByName(alias %q) = %v, %v; want method %d", a, got, err, c.Method())
			}
		}
		sc, ok := c.(codec.Schemed)
		if !ok {
			continue
		}
		if sc.Scheme().String() != c.Name() {
			t.Errorf("scheme %d String() = %q, registered as %q", sc.Scheme(), sc.Scheme().String(), c.Name())
		}
		s, err := ParseScheme(c.Name())
		if err != nil || s != sc.Scheme() {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", c.Name(), s, err, sc.Scheme())
		}
	}
}
