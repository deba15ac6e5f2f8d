// Package obs is the run-bundle layer: one versioned, self-describing
// artifact per run that captures everything the system knows about it —
// identity, the stats snapshot with histograms, the Chrome trace, the
// execution profile, the symbolized guest profile (per-function counts +
// folded stacks) and the byte-provenance size audit — written atomically
// as a directory with a checksummed manifest, re-loadable with schema
// validation, diffable pairwise (Diff) and renderable as a standalone
// HTML or text report (cmd/ccreport). The Collector is the one sink the
// tools thread a run's telemetry through, and a bundle is the only
// artifact they write.
package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

// SchemaVersion is the bundle format version recorded in every manifest.
// Open rejects any other version: a bundle is a cross-run comparison
// artifact, so silently reading a different layout would poison diffs.
const SchemaVersion = 1

// ManifestFile is the manifest's name inside a bundle directory. Its
// presence is also how Write recognizes (and agrees to replace) an
// existing bundle.
const ManifestFile = "manifest.json"

// Identity names the run a bundle captured. Every field is caller-supplied
// metadata — none of it affects section contents, so two runs of the same
// execution produce byte-identical sections and differ only here.
type Identity struct {
	// Bench is the benchmark or input program id.
	Bench string `json:"bench"`

	// Codec is the canonical codec name ("nibble", "ccrp", …) or "native"
	// for an uncompressed run; Method is its registry frame byte.
	Codec  string `json:"codec,omitempty"`
	Method uint8  `json:"method,omitempty"`

	// OptionsHash fingerprints the normalized compression options
	// (core.Options.Fingerprint), so bundles compressed under different
	// dictionary shapes never silently compare as equals.
	OptionsHash string `json:"options_hash,omitempty"`

	// GoVersion and Timestamp record the producing toolchain and the
	// caller-supplied wall-clock instant. They live in the manifest only,
	// never in a section, keeping section checksums reproducible.
	GoVersion string `json:"go_version,omitempty"`
	Timestamp string `json:"timestamp,omitempty"`
}

// String renders the identity as "bench/codec" for report headers.
func (id Identity) String() string {
	if id.Codec == "" {
		return id.Bench
	}
	return id.Bench + "/" + id.Codec
}

// Section is one manifest entry: a named artifact file and its checksum.
type Section struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Manifest is the bundle's index: schema version, run identity, and the
// checksummed section list. It is written last, so a bundle with a
// manifest is complete by construction.
type Manifest struct {
	Schema   int       `json:"schema"`
	Identity Identity  `json:"identity"`
	Sections []Section `json:"sections"`
}

// Bundle is the in-memory form of a run bundle. Every section is
// optional — a size-only codec has no execution sections, a native run
// has no audit — and absent sections simply do not appear in the written
// directory.
type Bundle struct {
	Identity Identity

	// Stats is the run's recorder snapshot (counters, phases, histograms).
	Stats *stats.Snapshot

	// Profile is the execution profile: the hot dictionary entries with
	// their expansion counts and the cache miss curve. The run's counters
	// are in Stats.
	Profile *core.RunProfile

	// Guest is the symbolized per-function profile; GuestFolded its folded
	// call stacks (flamegraph input).
	Guest       *guestprof.Profile
	GuestFolded string

	// Audit is the byte-provenance size audit; AuditCSV its per-function
	// per-class CSV rendering.
	Audit    *sizeaudit.Audit
	AuditCSV string

	// Trace is the run's Chrome trace-event document, verbatim.
	Trace []byte
}

// section ids and files, in the order Write emits them.
const (
	secStats       = "stats"
	secProfile     = "profile"
	secGuest       = "guest"
	secGuestFolded = "guest_folded"
	secAudit       = "audit"
	secAuditCSV    = "audit_csv"
	secTrace       = "trace"
)

var sectionFiles = map[string]string{
	secStats:       "stats.json",
	secProfile:     "profile.json",
	secGuest:       "guest.json",
	secGuestFolded: "guest.folded",
	secAudit:       "audit.json",
	secAuditCSV:    "audit.csv",
	secTrace:       "trace.json",
}

// marshalJSON renders a section value as indented JSON with a trailing
// newline — the one canonical encoding, so rewriting a reopened bundle
// reproduces it byte for byte.
func marshalJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// sections renders every present section to its canonical bytes, in
// manifest order.
func (b *Bundle) sections() ([]Section, [][]byte, error) {
	var secs []Section
	var blobs [][]byte
	add := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		secs = append(secs, Section{
			Name:   name,
			File:   sectionFiles[name],
			SHA256: hex.EncodeToString(sum[:]),
			Bytes:  int64(len(data)),
		})
		blobs = append(blobs, data)
	}
	addJSON := func(name string, v any) error {
		data, err := marshalJSON(v)
		if err != nil {
			return fmt.Errorf("obs: marshaling %s: %w", name, err)
		}
		add(name, data)
		return nil
	}
	if b.Stats != nil {
		if err := addJSON(secStats, b.Stats); err != nil {
			return nil, nil, err
		}
	}
	if b.Profile != nil {
		if err := addJSON(secProfile, b.Profile); err != nil {
			return nil, nil, err
		}
	}
	if b.Guest != nil {
		if err := addJSON(secGuest, b.Guest); err != nil {
			return nil, nil, err
		}
	}
	if b.GuestFolded != "" {
		add(secGuestFolded, []byte(b.GuestFolded))
	}
	if b.Audit != nil {
		if err := addJSON(secAudit, b.Audit); err != nil {
			return nil, nil, err
		}
	}
	if b.AuditCSV != "" {
		add(secAuditCSV, []byte(b.AuditCSV))
	}
	if len(b.Trace) > 0 {
		add(secTrace, b.Trace)
	}
	return secs, blobs, nil
}

// Write persists the bundle as the directory dir, atomically: sections
// and manifest land in a temporary sibling directory that is renamed into
// place, so a crashed writer never leaves a half-bundle behind. An
// existing directory at dir is replaced only if it is itself a bundle
// (it contains a manifest); anything else is refused rather than deleted.
func Write(dir string, b *Bundle) error {
	secs, blobs, err := b.sections()
	if err != nil {
		return err
	}
	man := Manifest{Schema: SchemaVersion, Identity: b.Identity, Sections: secs}
	manData, err := marshalJSON(man)
	if err != nil {
		return fmt.Errorf("obs: marshaling manifest: %w", err)
	}

	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".obs-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // no-op after the successful rename
	for i, s := range secs {
		if err := os.WriteFile(filepath.Join(tmp, s.File), blobs[i], 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, ManifestFile), manData, 0o644); err != nil {
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
			return fmt.Errorf("obs: refusing to replace %s: exists but is not a bundle (no %s)", dir, ManifestFile)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return os.Rename(tmp, dir)
}

// Open loads a bundle directory, validating the manifest's schema version
// and every section's checksum. It is the strict inverse of Write: an
// opened bundle rewritten with Write reproduces the section files byte
// for byte.
func Open(dir string) (*Bundle, error) {
	manData, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("obs: %s is not a bundle: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return nil, fmt.Errorf("obs: %s: corrupt manifest: %w", dir, err)
	}
	if man.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: %s: bundle schema version %d, this build reads %d", dir, man.Schema, SchemaVersion)
	}
	b := &Bundle{Identity: man.Identity}
	for _, s := range man.Sections {
		if want := sectionFiles[s.Name]; want == "" || want != s.File {
			return nil, fmt.Errorf("obs: %s: manifest names unknown section %q (file %q)", dir, s.Name, s.File)
		}
		data, err := os.ReadFile(filepath.Join(dir, s.File))
		if err != nil {
			return nil, fmt.Errorf("obs: %s: section %s: %w", dir, s.Name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != s.SHA256 {
			return nil, fmt.Errorf("obs: %s: section %s: checksum mismatch (manifest %s, file %s)", dir, s.Name, s.SHA256, got)
		}
		if err := b.loadSection(s.Name, data); err != nil {
			return nil, fmt.Errorf("obs: %s: section %s: %w", dir, s.Name, err)
		}
	}
	return b, nil
}

// loadSection decodes one section's bytes into the bundle field.
func (b *Bundle) loadSection(name string, data []byte) error {
	switch name {
	case secStats:
		b.Stats = &stats.Snapshot{}
		return json.Unmarshal(data, b.Stats)
	case secProfile:
		b.Profile = &core.RunProfile{}
		return json.Unmarshal(data, b.Profile)
	case secGuest:
		b.Guest = &guestprof.Profile{}
		return json.Unmarshal(data, b.Guest)
	case secGuestFolded:
		b.GuestFolded = string(data)
	case secAudit:
		b.Audit = &sizeaudit.Audit{}
		return json.Unmarshal(data, b.Audit)
	case secAuditCSV:
		b.AuditCSV = string(data)
	case secTrace:
		b.Trace = data
	default: // unreachable: Open filters names through sectionFiles first
		return fmt.Errorf("unknown section %q", name)
	}
	return nil
}

// WriteTextFile streams render's output to path; "-" selects stdout.
func WriteTextFile(path string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
