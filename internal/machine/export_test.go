package machine

import "bytes"

// RegionBytes returns a copy of each mapped region's bytes by region
// name, so tests can compare memories byte for byte.
func RegionBytes(m *Memory) map[string][]byte {
	out := make(map[string][]byte, len(m.regions))
	for _, r := range m.regions {
		out[r.name] = bytes.Clone(r.data)
	}
	return out
}
