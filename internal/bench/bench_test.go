package bench

import (
	"strconv"
	"strings"
	"testing"
)

// sharedCorpus keeps test runtime down; runners are read-only over it.
var sharedCorpus = NewCorpus()

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	r, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tab, err := r.Run(sharedCorpus)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row width %d vs %d columns", id, len(row), len(tab.Columns))
		}
	}
	return tab
}

// cell parses a ratio or percent cell back to float64.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "pp")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparsable cell %q", s)
	}
	return v
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig1", "table1", "fig4", "fig5", "table2", "fig6", "fig7",
		"fig8", "fig9", "fig11", "table3", "baselines", "icache", "penalty",
		"ablation-selection", "ablation-alignment",
		"standardize", "dictplace", "cycles", "profiled", "regalloc", "refill", "shared", "crossover", "scaling",
		"guestprof", "sizeaudit", "exec"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(Experiments) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Experiments), len(want))
	}
}

func TestFig1Shapes(t *testing.T) {
	tab := runExp(t, "fig1")
	for _, row := range tab.Rows {
		single := cell(t, row[4])
		multi := cell(t, row[3])
		if single+multi < 99.0 || single+multi > 101.0 {
			t.Errorf("%s: fractions do not partition: %v + %v", row[0], multi, single)
		}
		if single > 35 {
			t.Errorf("%s: single-use %v%% too high vs paper's <20%% average", row[0], single)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := runExp(t, "fig4")
	for _, row := range tab.Rows {
		l1, l4 := cell(t, row[1]), cell(t, row[3])
		if l4 > l1+0.001 {
			t.Errorf("%s: len-4 ratio %v worse than len-1 %v", row[0], l4, l1)
		}
	}
}

func TestFig5Monotone(t *testing.T) {
	tab := runExp(t, "fig5")
	for _, row := range tab.Rows {
		prev := 10.0
		for _, c := range row[1:] {
			v := cell(t, c)
			if v > prev+1e-9 {
				t.Errorf("%s: ratio not monotone in codeword count: %v after %v", row[0], v, prev)
			}
			prev = v
		}
	}
}

func TestTable2Ordering(t *testing.T) {
	tab := runExp(t, "table2")
	counts := map[string]float64{}
	for _, row := range tab.Rows {
		counts[row[0]] = cell(t, row[1])
	}
	if !(counts["gcc"] > counts["vortex"] && counts["vortex"] > counts["li"] && counts["li"] > counts["compress"]) {
		t.Errorf("max-codeword ordering does not track size: %v", counts)
	}
}

func TestFig6SinglesDominate(t *testing.T) {
	tab := runExp(t, "fig6")
	last := tab.Rows[len(tab.Rows)-1]
	if frac := cell(t, last[6]); frac < 40 {
		t.Errorf("largest dictionary: single-instruction entries only %v%%", frac)
	}
}

func TestFig8SmallDictHelps(t *testing.T) {
	tab := runExp(t, "fig8")
	mean := tab.Rows[len(tab.Rows)-1]
	if mean[0] != "mean" {
		t.Fatal("mean row missing")
	}
	if v := cell(t, mean[3]); v > 0.95 {
		t.Errorf("512B dictionary mean ratio %v — paper reports ~15%% reduction", v)
	}
}

func TestFig9SumsToOne(t *testing.T) {
	tab := runExp(t, "fig9")
	for _, row := range tab.Rows {
		sum := 0.0
		for _, c := range row[1:] {
			sum += cell(t, c)
		}
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s: composition sums to %v%%", row[0], sum)
		}
	}
}

func TestFig11Band(t *testing.T) {
	tab := runExp(t, "fig11")
	for _, row := range tab.Rows {
		nib := cell(t, row[1])
		if nib < 0.25 || nib > 0.80 {
			t.Errorf("%s: nibble ratio %v outside the paper's 30–50%%-reduction neighborhood", row[0], nib)
		}
	}
}

func TestBaselinesOrdering(t *testing.T) {
	tab := runExp(t, "baselines")
	// Columns follow the codec registry's method-byte order plus thumb16:
	// bench, baseline, onebyte, nibble, liao, ccrp, lzw, thumb16.
	if want := append(append([]string{"bench"}, AuditEncodings...), "thumb16"); len(tab.Columns) != len(want) {
		t.Fatalf("baselines columns %v, want %v", tab.Columns, want)
	}
	for _, row := range tab.Rows {
		base, nib, liao := cell(t, row[1]), cell(t, row[3]), cell(t, row[4])
		ccrp, thumb16 := cell(t, row[5]), cell(t, row[7])
		if nib >= base {
			t.Errorf("%s: nibble %v not better than baseline %v", row[0], nib, base)
		}
		if base >= liao {
			t.Errorf("%s: baseline %v not better than liao %v", row[0], base, liao)
		}
		if base >= thumb16 {
			t.Errorf("%s: baseline %v not better than thumb %v", row[0], base, thumb16)
		}
		// Thumb16 and CCRP land in the same neighborhood (the note's "≈");
		// only require both to actually compress.
		if thumb16 >= 1.0 || ccrp >= 1.0 {
			t.Errorf("%s: thumb %v / ccrp %v failed to compress", row[0], thumb16, ccrp)
		}
	}
}

func TestICacheCompressedMissesLess(t *testing.T) {
	tab := runExp(t, "icache")
	for _, row := range tab.Rows {
		// Compare the smallest cache column pair.
		orig, comp := cell(t, row[1]), cell(t, row[2])
		if comp > orig+0.5 {
			t.Errorf("%s: compressed misses more (%v%% vs %v%%) in the smallest cache", row[0], comp, orig)
		}
	}
}

func TestPenaltyTrafficWins(t *testing.T) {
	tab := runExp(t, "penalty")
	for _, row := range tab.Rows {
		if v := cell(t, row[6]); v >= 100 {
			t.Errorf("%s: compressed fetch traffic %v%% of original — no win", row[0], v)
		}
	}
}

func TestAblationSelectionGreedyWins(t *testing.T) {
	tab := runExp(t, "ablation-selection")
	for _, row := range tab.Rows {
		if d := cell(t, row[4]); d > 0.5 {
			t.Errorf("%s: greedy worse than static by %vpp", row[0], d)
		}
		if row[1] != row[2] {
			t.Errorf("%s: indexed greedy ratio %s != reference greedy ratio %s", row[0], row[1], row[2])
		}
	}
}

func TestAblationAlignmentCostsSomething(t *testing.T) {
	tab := runExp(t, "ablation-alignment")
	worse := 0
	for _, row := range tab.Rows {
		if cell(t, row[3]) > 0 {
			worse++
		}
	}
	if worse == 0 {
		t.Error("padding never cost anything — ablation is vacuous")
	}
}

func TestRenderProducesAlignedOutput(t *testing.T) {
	tab := runExp(t, "table3")
	out := tab.Render()
	if !strings.Contains(out, "table3") || !strings.Contains(out, "compress") {
		t.Error("render missing expected content")
	}
	if !strings.Contains(out, "note:") {
		t.Error("render missing the note")
	}
}

func TestRemainingRunnersExecute(t *testing.T) {
	for _, id := range []string{"table1", "fig7"} {
		runExp(t, id)
	}
}

func TestTable1HasTails(t *testing.T) {
	tab := runExp(t, "table1")
	any4bit := false
	for _, row := range tab.Rows {
		n2 := cell(t, row[2])
		n1 := cell(t, row[4])
		n4 := cell(t, row[6])
		if n2 > n1 || n1 > n4 {
			t.Errorf("%s: overflow counts not monotone in resolution", row[0])
		}
		if n4 > 0 {
			any4bit = true
		}
	}
	if !any4bit {
		t.Error("no benchmark has 4-bit-resolution overflows — mega functions missing?")
	}
}

func TestStandardizeNetWins(t *testing.T) {
	tab := runExp(t, "standardize")
	wins := 0
	for _, row := range tab.Rows {
		if v := cell(t, row[6]); v < 0 {
			wins++
		}
	}
	if wins < len(tab.Rows)/2 {
		t.Errorf("standardized prologues won on only %d of %d benchmarks", wins, len(tab.Rows))
	}
}

func TestDictPlacementTrafficGrows(t *testing.T) {
	tab := runExp(t, "dictplace")
	for _, row := range tab.Rows {
		onChip := cell(t, row[1])
		inMem := cell(t, row[2])
		if inMem <= onChip {
			t.Errorf("%s: in-memory dictionary did not add fetch traffic", row[0])
		}
	}
}

func TestProfiledReducesTraffic(t *testing.T) {
	tab := runExp(t, "profiled")
	better := 0
	for _, row := range tab.Rows {
		fs, fd := cell(t, row[3]), cell(t, row[4])
		if fd < fs {
			better++
		}
		// Static size may pay a little, but not collapse.
		if cell(t, row[2]) > cell(t, row[1])+0.05 {
			t.Errorf("%s: profiled static ratio regressed too far", row[0])
		}
	}
	if better == 0 {
		t.Error("profile-guided ranking never reduced fetch traffic")
	}
}

func TestScalingShape(t *testing.T) {
	tab := runExp(t, "scaling")
	var prevCW float64
	var prevBench string
	for _, row := range tab.Rows {
		if row[0] != prevBench {
			prevCW = 0
			prevBench = row[0]
		}
		ratio := cell(t, row[3])
		if ratio < 0.35 || ratio > 0.75 {
			t.Errorf("%s@%s: ratio %v drifted outside the band", row[0], row[1], ratio)
		}
		cw := cell(t, row[4])
		if cw <= prevCW {
			t.Errorf("%s@%s: max codewords %v did not grow with scale", row[0], row[1], cw)
		}
		prevCW = cw
	}
}

func TestCrossoverShape(t *testing.T) {
	tab := runExp(t, "crossover")
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			t.Fatalf("unparsable speedup %q", s)
		}
		return v
	}
	for _, row := range tab.Rows {
		free := parse(row[1])
		slow := parse(row[len(row)-1])
		if free > 1.0 {
			t.Errorf("%s: compression free with zero-cost memory (%.2fx) — decode penalty unmodeled?", row[0], free)
		}
		if slow <= 1.0 {
			t.Errorf("%s: no win even at the slowest memory (%.2fx)", row[0], slow)
		}
		// Monotone non-decreasing speedup across the sweep.
		prev := 0.0
		for _, c := range row[1:] {
			v := parse(c)
			if v < prev-1e-9 {
				t.Errorf("%s: speedup not monotone in miss penalty", row[0])
			}
			prev = v
		}
	}
}

func TestSharedDictionaryFleet(t *testing.T) {
	tab := runExp(t, "shared")
	fleet := tab.Rows[len(tab.Rows)-1]
	if fleet[0] != "fleet" {
		t.Fatal("fleet row missing")
	}
	own, shared := cell(t, fleet[1]), cell(t, fleet[2])
	if own >= 1 || shared >= 1 {
		t.Fatalf("fleet ratios did not compress: own %v shared %v", own, shared)
	}
	// Every per-program shared image verified inside the runner; here just
	// confirm the table covered all benchmarks plus the fleet row.
	if len(tab.Rows) != len(sharedCorpus.Names())+1 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestRefillDictionaryWins(t *testing.T) {
	tab := runExp(t, "refill")
	for _, row := range tab.Rows {
		dictPct := cell(t, row[4])
		ccrpPct := cell(t, row[5])
		if dictPct >= 100 {
			t.Errorf("%s: dictionary refill traffic not below original", row[0])
		}
		if ccrpPct >= 100 {
			t.Errorf("%s: CCRP refill traffic not below original", row[0])
		}
		if dictPct >= ccrpPct {
			t.Errorf("%s: dictionary (%v%%) did not beat CCRP (%v%%)", row[0], dictPct, ccrpPct)
		}
	}
}

func TestRegallocScrambleHurts(t *testing.T) {
	tab := runExp(t, "regalloc")
	for _, row := range tab.Rows {
		if cell(t, row[3]) <= 0 {
			t.Errorf("%s: scrambled allocation did not hurt compression", row[0])
		}
	}
}

func TestSizeAuditShape(t *testing.T) {
	tab := runExp(t, "sizeaudit")
	if len(tab.Rows) != len(sharedCorpus.Names())*len(AuditEncodings) {
		t.Fatalf("%d rows, want %d benchmarks x %d encodings",
			len(tab.Rows), len(sharedCorpus.Names()), len(AuditEncodings))
	}
	for _, row := range tab.Rows {
		// Class shares must partition the image: the runner conservation-
		// checks every audit in bits, so the rendered row sums to ~100%
		// within rounding of the seven printed cells.
		sum := 0.0
		for _, c := range row[4:] {
			sum += cell(t, c)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s/%s: class shares sum to %v%%", row[0], row[1], sum)
		}
		ratio := cell(t, row[3])
		if ratio <= 0 || ratio >= 1.0 {
			t.Errorf("%s/%s: ratio %v did not compress", row[0], row[1], ratio)
		}
	}
	// The dictionary schemes must surface dictionary storage; CCRP its
	// tables; LZW has neither a stub nor a header class.
	for _, row := range tab.Rows {
		enc := row[1]
		dict := cell(t, row[8])
		tbl := cell(t, row[9])
		switch enc {
		case "baseline", "onebyte", "nibble", "liao":
			if dict <= 0 {
				t.Errorf("%s/%s: dictionary share %v not positive", row[0], enc, dict)
			}
		case "ccrp":
			if tbl <= 0 {
				t.Errorf("%s/%s: table share %v not positive (LAT + code table)", row[0], enc, tbl)
			}
		}
	}
}

func TestCyclesSpeedup(t *testing.T) {
	tab := runExp(t, "cycles")
	for _, row := range tab.Rows {
		sp := strings.TrimSuffix(row[3], "x")
		v, err := strconv.ParseFloat(sp, 64)
		if err != nil {
			t.Fatalf("unparsable speedup %q", row[3])
		}
		if v < 1.0 {
			t.Errorf("%s: compression slowed execution (%.2fx) under the small-cache model", row[0], v)
		}
	}
}
