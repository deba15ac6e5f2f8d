package codec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The registry. Codecs register from init functions in their home
// packages; lookups after package initialization are read-only, but the
// lock keeps Register safe for tests that build throwaway registrations.
var (
	regMu    sync.RWMutex
	byMethod = map[Method]Codec{}
	byName   = map[string]Codec{}
	aliasOf  = map[string]string{} // alias -> canonical name
)

// Register adds a codec under its method byte and canonical name, plus any
// extra accepted aliases. It panics on conflicts: double registration is a
// programming error best caught at init time. Every conflict is checked
// before anything is added, so a registration that panics leaves the
// registry as it was.
func Register(c Codec, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	name := strings.ToLower(c.Name())
	if name == "" {
		panic("codec: Register with empty name")
	}
	if prev, ok := byMethod[c.Method()]; ok {
		panic(fmt.Sprintf("codec: method %d registered twice (%s, %s)", c.Method(), prev.Name(), name))
	}
	names := []string{name}
	for _, a := range aliases {
		names = append(names, strings.ToLower(a))
	}
	for i, n := range names {
		if _, ok := byName[n]; ok || slices.Contains(names[:i], n) {
			if i == 0 {
				panic(fmt.Sprintf("codec: name %q registered twice", n))
			}
			panic(fmt.Sprintf("codec: alias %q already registered", n))
		}
	}
	byMethod[c.Method()] = c
	for i, n := range names {
		byName[n] = c
		if i > 0 {
			aliasOf[n] = name
		}
	}
}

// ByMethod resolves a frame method byte.
func ByMethod(m Method) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byMethod[m]
	if !ok {
		return nil, fmt.Errorf("codec: unknown method byte %d", m)
	}
	return c, nil
}

// ByName resolves a canonical name or alias, case-insensitively.
func ByName(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("codec: unknown codec %q (want one of %s)",
			name, strings.Join(namesLocked(), ", "))
	}
	return c, nil
}

// Codecs lists every registered codec, ordered by method byte.
func Codecs() []Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Codec, 0, len(byMethod))
	for _, c := range byMethod {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method() < out[j].Method() })
	return out
}

// Names lists the canonical codec names, ordered by method byte.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	type mn struct {
		m Method
		n string
	}
	tmp := make([]mn, 0, len(byMethod))
	for m, c := range byMethod {
		tmp = append(tmp, mn{m, strings.ToLower(c.Name())})
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].m < tmp[j].m })
	out := make([]string, len(tmp))
	for i, t := range tmp {
		out[i] = t.n
	}
	return out
}

// Aliases lists the extra accepted names for a canonical codec name,
// sorted; empty when the codec has none.
func Aliases(canonical string) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for a, n := range aliasOf {
		if n == strings.ToLower(canonical) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}
