package machine

import (
	"os"
	"strings"
	"testing"
)

// TestBailCountersRegistered pins the dynamically built fast-path counter
// names against the metric registry: the lint-metrics grep gate can only
// see literal names, so the "machine.fastpath.bail." + BailReason family
// is enumerated in internal/stats/metrics.txt by hand and this test keeps
// that enumeration complete, as it does the "machine.faults." + FaultKind
// family. Adding a bail reason or a fault kind without registering its
// counter fails here.
func TestBailCountersRegistered(t *testing.T) {
	data, err := os.ReadFile("../stats/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	registry := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			registry[line] = true
		}
	}
	for _, name := range bailCounterNames {
		if !registry[name] {
			t.Errorf("bail counter %q missing from internal/stats/metrics.txt", name)
		}
	}
	for _, kind := range faultNames {
		if name := "machine.faults." + kind; !registry[name] {
			t.Errorf("fault counter %q missing from internal/stats/metrics.txt", name)
		}
	}
	for _, name := range []string{
		"machine.fastpath.steps",
		"machine.fastpath.slow_steps",
	} {
		if !registry[name] {
			t.Errorf("fast-path metric %q missing from internal/stats/metrics.txt", name)
		}
	}
}
