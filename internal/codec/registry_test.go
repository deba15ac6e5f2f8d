package codec_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	_ "repro/internal/codecs"
)

// builtin is the registry as the built-in codecs leave it, in method order.
var builtin = []string{"baseline", "onebyte", "nibble", "liao", "ccrp", "lzw"}

// throwaway is a codec that only has a method byte and a name; Register
// reads nothing else, so the embedded interface is never called.
type throwaway struct {
	codec.Codec
	m codec.Method
	n string
}

func (t throwaway) Method() codec.Method { return t.m }
func (t throwaway) Name() string         { return t.n }

func TestRegisterPanicsOnConflict(t *testing.T) {
	for _, tc := range []struct {
		what    string
		c       throwaway
		aliases []string
	}{
		{"method byte", throwaway{m: codec.Nibble, n: "throwaway"}, nil},
		{"name", throwaway{m: 200, n: "NIBBLE"}, nil},
		{"name taken as an alias", throwaway{m: 200, n: "2byte"}, nil},
		{"alias", throwaway{m: 200, n: "throwaway"}, []string{"x", "Compress"}},
		{"alias equal to a name", throwaway{m: 200, n: "throwaway"}, []string{"LZW"}},
		{"alias equal to its own name", throwaway{m: 200, n: "throwaway"}, []string{"Throwaway"}},
		{"alias repeated", throwaway{m: 200, n: "throwaway"}, []string{"x", "X"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register(%q, method %d, aliases %q) did not panic", tc.what, tc.c.n, tc.c.m, tc.aliases)
				}
			}()
			codec.Register(tc.c, tc.aliases...)
		}()
		// A registration that panics adds nothing.
		if got := codec.Names(); !reflect.DeepEqual(got, builtin) {
			t.Fatalf("%s: names after the panic %q, want %q", tc.what, got, builtin)
		}
		for _, n := range []string{"throwaway", "x"} {
			if _, err := codec.ByName(n); err == nil {
				t.Fatalf("%s: %q resolves after the panic", tc.what, n)
			}
		}
		if _, err := codec.ByMethod(200); err == nil {
			t.Fatalf("%s: method 200 resolves after the panic", tc.what)
		}
	}
}

func TestByNameResolvesAliasesCaseInsensitively(t *testing.T) {
	for name, want := range map[string]string{
		"2BYTE":    "baseline",
		"2byte":    "baseline",
		"1Byte":    "onebyte",
		"Compress": "lzw",
		"NiBbLe":   "nibble",
		"CCRP":     "ccrp",
	} {
		c, err := codec.ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if c.Name() != want {
			t.Errorf("ByName(%q) = %s, want %s", name, c.Name(), want)
		}
	}
	if _, err := codec.ByName("nibbles"); err == nil || !strings.Contains(err.Error(), strings.Join(builtin, ", ")) {
		t.Errorf("ByName of an unknown name: %v, want an error listing %q", err, builtin)
	}
}

func TestByMethodUnknownErrors(t *testing.T) {
	for _, m := range []codec.Method{codec.LZW + 1, 200, 255} {
		if c, err := codec.ByMethod(m); err == nil {
			t.Errorf("ByMethod(%d) = %s, want an error", m, c.Name())
		}
	}
	c, err := codec.ByMethod(codec.CCRP)
	if err != nil || c.Name() != "ccrp" {
		t.Errorf("ByMethod(CCRP) = %v, %v", c, err)
	}
}

func TestCodecsListedInMethodOrder(t *testing.T) {
	for run := 0; run < 3; run++ {
		if got := codec.Names(); !reflect.DeepEqual(got, builtin) {
			t.Fatalf("Names() = %q, want %q", got, builtin)
		}
		cs := codec.Codecs()
		if len(cs) != len(builtin) {
			t.Fatalf("Codecs() lists %d codecs, want %d", len(cs), len(builtin))
		}
		for i, c := range cs {
			if c.Method() != codec.Method(i) || c.Name() != builtin[i] {
				t.Errorf("Codecs()[%d] = method %d %s, want method %d %s", i, c.Method(), c.Name(), i, builtin[i])
			}
		}
	}
}
