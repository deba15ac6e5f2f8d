// Package cli holds small helpers shared by the command-line tools. Codec
// and scheme names resolve through the codec registry, so the tools accept
// exactly the set of registered encodings — adding a codec package updates
// every tool's vocabulary with no changes here.
package cli

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	_ "repro/internal/codecs" // populate the registry
	"repro/internal/codeword"
)

// ParseScheme maps user-facing scheme names to dictionary codeword
// schemes; it accepts exactly the registered dictionary codecs (and their
// aliases), rejecting non-dictionary codecs such as ccrp or lzw.
func ParseScheme(s string) (codeword.Scheme, error) {
	c, err := codec.ByName(s)
	if err != nil {
		return 0, fmt.Errorf("unknown scheme %q (want one of %s)", s, strings.Join(SchemeNames(), ", "))
	}
	sc, ok := c.(codec.Schemed)
	if !ok {
		return 0, fmt.Errorf("codec %q is not a dictionary codeword scheme (want one of %s)",
			c.Name(), strings.Join(SchemeNames(), ", "))
	}
	return sc.Scheme(), nil
}

// SchemeNames lists the dictionary-scheme codec names, in method-byte
// order.
func SchemeNames() []string {
	var out []string
	for _, c := range codec.Codecs() {
		if _, ok := c.(codec.Schemed); ok {
			out = append(out, c.Name())
		}
	}
	return out
}
