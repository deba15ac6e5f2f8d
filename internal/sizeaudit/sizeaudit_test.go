package sizeaudit

import (
	"encoding/json"
	"strings"
	"testing"
)

func testFuncs() []Func {
	return []Func{{Name: "alpha", Start: 0}, {Name: "beta", Start: 16}, {Name: "gamma", Start: 40}}
}

func TestEmitterFloorSearch(t *testing.T) {
	em := NewEmitter(testFuncs(), 64)
	em.At(Codeword, 0, 10) // first byte of alpha
	em.At(Codeword, 15, 2) // last byte of alpha
	em.At(Raw, 16, 32)     // exact start of beta
	em.At(Raw, 39, 8)      // last byte of beta
	em.At(Stub, 40, 64)    // start of gamma
	em.At(Stub, 63, 4)     // last in-range offset
	em.At(Raw, 64, 8)      // == limit: unknown
	em.At(Raw, 1000, 8)    // far past limit: unknown
	em.Global(Dict, DictRow, 100)

	a := em.Finish("t", "test", 0, 0)
	want := map[string]int64{"alpha": 12, "beta": 40, "gamma": 68, UnknownRow: 16, DictRow: 100}
	if len(a.Funcs) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(a.Funcs), len(want), a.Funcs)
	}
	for name, bits := range want {
		f, ok := a.FuncByName(name)
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if f.Bits.Total() != bits {
			t.Errorf("%s: got %d bits, want %d", name, f.Bits.Total(), bits)
		}
	}
	if err := a.Check(); err == nil {
		t.Fatal("Check passed despite unknown row")
	}
}

func TestEmitterFuncBeforeFirstStart(t *testing.T) {
	// A gap before the first function: offsets there are unattributable.
	em := NewEmitter([]Func{{Name: "f", Start: 8}}, 64)
	em.At(Raw, 0, 8)
	em.At(Raw, 7, 8)
	em.At(Raw, 8, 8)
	a := em.Finish("t", "test", 0, 0)
	if f, ok := a.FuncByName(UnknownRow); !ok || f.Bits.Total() != 16 {
		t.Fatalf("pre-function bits not in unknown row: %+v", a.Funcs)
	}
	if f, ok := a.FuncByName("f"); !ok || f.Bits.Total() != 8 {
		t.Fatalf("function row wrong: %+v", a.Funcs)
	}
}

func TestNilEmitterIsNoOp(t *testing.T) {
	var em *Emitter
	em.At(Codeword, 0, 8)
	em.AtWord(Raw, 2, 8)
	em.Global(Dict, DictRow, 8)
	if a := em.Finish("t", "test", 0, 0); a != nil {
		t.Fatalf("nil emitter finished to %+v", a)
	}
}

func TestEmitterRowOrder(t *testing.T) {
	// Real functions come out in address order regardless of emit order;
	// globals in first-emit order; empty function rows are dropped.
	em := NewEmitter(testFuncs(), 64)
	em.Global(Header, HeaderRow, 8)
	em.At(Raw, 40, 8) // gamma before alpha
	em.At(Raw, 0, 8)
	em.Global(Dict, DictRow, 8)
	a := em.Finish("t", "test", 4, 0)
	got := make([]string, len(a.Funcs))
	for i, f := range a.Funcs {
		got[i] = f.Name
	}
	want := []string{"alpha", "gamma", HeaderRow, DictRow}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("row order %v, want %v", got, want)
	}
	if err := a.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCheckConservation(t *testing.T) {
	em := NewEmitter(testFuncs(), 64)
	em.At(Codeword, 0, 15)
	a := em.Finish("t", "test", 2, 0) // 16 bits expected, 15 attributed
	if err := a.Check(); err == nil {
		t.Fatal("Check passed with missing bits")
	}
	em2 := NewEmitter(testFuncs(), 64)
	em2.At(Codeword, 0, 16)
	if err := em2.Finish("t", "test", 2, 0).Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestClassBitsJSONRoundTrip(t *testing.T) {
	var b ClassBits
	b[Codeword] = 100
	b[Padding] = 3
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "\"raw\"") {
		t.Fatalf("zero class serialized: %s", data)
	}
	var got ClassBits
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("round trip %v != %v", got, b)
	}
	if err := json.Unmarshal([]byte(`{"bogus": 1}`), &got); err == nil {
		t.Fatal("unknown class key accepted")
	}
}

func TestAuditJSONRoundTrip(t *testing.T) {
	em := NewEmitter(testFuncs(), 64)
	em.At(Codeword, 0, 12)
	em.At(Raw, 16, 32)
	em.Global(Dict, DictRow, 20)
	a := em.Finish("bench", "nibble", 8, 100)
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var got Audit
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != a.Name || got.Encoding != a.Encoding ||
		got.TotalBytes != a.TotalBytes || got.OriginalBytes != a.OriginalBytes ||
		got.AttributedBits() != a.AttributedBits() || len(got.Funcs) != len(a.Funcs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
}

func TestDiff(t *testing.T) {
	emA := NewEmitter(testFuncs(), 64)
	emA.At(Raw, 0, 320)
	emA.At(Raw, 16, 160)
	a := emA.Finish("bench", "native", 60, 60)

	emB := NewEmitter(testFuncs(), 64)
	emB.At(Codeword, 0, 200)
	emB.At(Codeword, 40, 80)
	emB.Global(Dict, DictRow, 40)
	b := emB.Finish("bench", "nibble", 40, 60)

	d := Diff(a, b)
	byName := map[string]DiffRow{}
	for _, r := range d.Rows {
		byName[r.Name] = r
	}
	if r := byName["alpha"]; !r.InA || !r.InB || r.Delta() != 200-320 {
		t.Fatalf("alpha row %+v", r)
	}
	if r := byName["beta"]; !r.InA || r.InB || r.ABits != 160 {
		t.Fatalf("beta row %+v", r)
	}
	if r := byName["gamma"]; r.InA || !r.InB || r.BBits != 80 {
		t.Fatalf("gamma row %+v", r)
	}
	if r := byName[DictRow]; r.InA || !r.InB || r.BBits != 40 {
		t.Fatalf("dict row %+v", r)
	}
	var sb strings.Builder
	if err := d.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"alpha", "beta", "gamma", DictRow, "TOTAL", "-15.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff table missing %q:\n%s", want, out)
		}
	}
}

func TestExporters(t *testing.T) {
	em := NewEmitter(testFuncs(), 64)
	em.At(Codeword, 0, 13) // deliberately non-byte-aligned
	em.At(Raw, 16, 35)
	em.Global(Dict, DictRow, 32)
	a := em.Finish("bench", "nibble", 10, 100)
	if err := a.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}

	var tbl strings.Builder
	if err := a.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bench (nibble)", "10 bytes", "of 100 original",
		"alpha", "beta", DictRow, "TOTAL", "1.625"} { // 13 bits = 1.625 bytes, exactly
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}

	var csvb strings.Builder
	if err := a.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvb.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv has %d lines:\n%s", len(lines), csvb.String())
	}
	if !strings.HasPrefix(lines[0], "name,encoding,function,codeword_bits") {
		t.Fatalf("csv header: %s", lines[0])
	}
}

func TestBytesStrExact(t *testing.T) {
	cases := map[int64]string{0: "0", 8: "1", 16: "2", 4: "0.5", 13: "1.625", 12345 * 8: "12345"}
	for bits, want := range cases {
		if got := bytesStr(bits); got != want {
			t.Errorf("bytesStr(%d) = %q, want %q", bits, got, want)
		}
	}
}
