package bench

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestImageKeyNormalization: MaxEntries 0 and an explicit scheme maximum
// must share one cache entry (they produce identical images), as must
// MaxEntryLen 0 and the explicit default of 4.
func TestImageKeyNormalization(t *testing.T) {
	zero := core.Options{Scheme: codeword.Baseline}
	explicit := core.Options{
		Scheme:      codeword.Baseline,
		MaxEntries:  codeword.Baseline.MaxEntries(),
		MaxEntryLen: 4,
	}
	if keyFor("x", zero) != keyFor("x", explicit) {
		t.Errorf("normalized keys differ: %+v vs %+v", keyFor("x", zero), keyFor("x", explicit))
	}
	over := core.Options{Scheme: codeword.OneByte, MaxEntries: 1 << 20, MaxEntryLen: 4}
	max := core.Options{Scheme: codeword.OneByte, MaxEntries: codeword.OneByte.MaxEntries(), MaxEntryLen: 4}
	if keyFor("x", over) != keyFor("x", max) {
		t.Error("beyond-maximum MaxEntries does not collapse onto the scheme maximum")
	}
	if keyFor("x", zero) == keyFor("y", zero) {
		t.Error("different benchmarks share a key")
	}
}

func TestAliasedOptionsCompressOnce(t *testing.T) {
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	a, err := c.Image("compress", core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Image("compress", core.Options{
		Scheme:      codeword.Baseline,
		MaxEntries:  codeword.Baseline.MaxEntries(),
		MaxEntryLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("aliased options did not share the cached image")
	}
	if got := rec.Snapshot().Counter("corpus.compressions"); got != 1 {
		t.Errorf("compressions = %d, want 1", got)
	}
}

// TestCorpusConcurrentImage hammers Corpus.Image from many goroutines with
// overlapping keys (including aliases of the same normalized key) and
// asserts exactly one compression per distinct key plus identical results
// for every requester. Run with -race to exercise the synchronization.
func TestCorpusConcurrentImage(t *testing.T) {
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	names := []string{"compress", "li"}
	opts := []core.Options{
		{Scheme: codeword.Baseline, MaxEntryLen: 4},
		{Scheme: codeword.Baseline, MaxEntries: codeword.Baseline.MaxEntries(), MaxEntryLen: 4}, // alias of the previous
		{Scheme: codeword.Baseline, MaxEntries: 64, MaxEntryLen: 4},
		{Scheme: codeword.Nibble, MaxEntryLen: 4},
		{Scheme: codeword.Nibble}, // alias of the previous (MaxEntryLen 0 -> 4)
		{Scheme: codeword.OneByte, MaxEntries: 16, MaxEntryLen: 4},
	}
	distinctKeys := map[imageKey]bool{}
	for _, name := range names {
		for _, opt := range opts {
			distinctKeys[keyFor(name, opt)] = true
		}
	}

	const workers = 16
	images := make([][]*core.Image, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, name := range names {
				for _, opt := range opts {
					img, err := c.Image(name, opt)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					images[w] = append(images[w], img)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	snap := rec.Snapshot()
	if got := snap.Counter("corpus.compressions"); got != int64(len(distinctKeys)) {
		t.Errorf("compressions = %d, want %d (one per distinct normalized key)", got, len(distinctKeys))
	}
	if got := snap.Counter("corpus.generations"); got != int64(len(names)) {
		t.Errorf("generations = %d, want %d", got, len(names))
	}
	// Three families per benchmark (baseline, nibble, one-byte, all at
	// entries ≤ 4): every cap of a family is a prefix of one build.
	if got := snap.Counter("corpus.builds"); got != int64(3*len(names)) {
		t.Errorf("builds = %d, want %d (one per family)", got, 3*len(names))
	}
	for w := 1; w < workers; w++ {
		for i := range images[0] {
			a, b := images[0][i], images[w][i]
			if a != b {
				t.Fatalf("worker %d item %d: got a different image pointer", w, i)
			}
			if !bytes.Equal(a.Stream, b.Stream) {
				t.Fatalf("worker %d item %d: streams differ", w, i)
			}
		}
	}
}

func TestCorpusCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCorpus().Bound(ctx, nil, nil)
	if _, err := c.Program("compress"); err == nil {
		t.Error("Program on a cancelled view did not fail")
	}
	if _, err := c.Image("compress", core.Options{Scheme: codeword.Baseline}); err == nil {
		t.Error("Image on a cancelled view did not fail")
	}
	// The caches must not have latched the cancellation: a fresh view over
	// the same state works.
	fresh := NewCorpus()
	fresh.state = c.state
	if _, err := fresh.Program("compress"); err != nil {
		t.Errorf("cache poisoned by cancellation: %v", err)
	}
}

func TestEachParallelMatchesSequential(t *testing.T) {
	sem := make(chan struct{}, 4)
	sem <- struct{}{} // the caller's slot, as the engine would hold it
	c := NewCorpus().Bound(context.Background(), sem, nil)
	const n = 100
	seen := make([]int, n)
	if err := c.each(n, func(i int) error { seen[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i*i {
			t.Fatalf("item %d not executed (got %d)", i, v)
		}
	}
}

// TestCorpusDerivedImagesMatchCompress: every Fig. 5 and Fig. 8 image the
// corpus derives from its family's one uncapped build must serialize to
// the same bytes as a direct core.Compress at that cap.
func TestCorpusDerivedImagesMatchCompress(t *testing.T) {
	var opts []core.Options
	for _, n := range fig5Sizes {
		opt := baselineOpts()
		opt.MaxEntries = n
		opts = append(opts, opt)
	}
	for _, n := range fig8Sizes {
		opts = append(opts, core.Options{Scheme: codeword.OneByte, MaxEntries: n, MaxEntryLen: 4})
	}
	rec := stats.New()
	c := NewCorpus().Bound(context.Background(), nil, rec)
	payload := func(img *core.Image) []byte {
		var b bytes.Buffer
		if err := core.WriteImagePayload(&b, img); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, name := range c.Names() {
		p, err := c.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range opts {
			got, err := c.Image(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Compress(p.Clone(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload(got), payload(want)) {
				t.Errorf("%s %v cap %d: derived image differs from a direct compression", name, opt.Scheme, opt.MaxEntries)
			}
		}
	}
	if got, want := rec.Snapshot().Counter("corpus.builds"), int64(2*len(c.Names())); got != want {
		t.Errorf("builds = %d, want %d (one per benchmark and scheme)", got, want)
	}
}
