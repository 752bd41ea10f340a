package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/rdf"
)

// snapMagic heads every snapshot file.
const snapMagic = "LNKSNAP1"

// Snapshot section types. Part of the on-disk format. Types 6 to 8, the
// learn-time graphs and links of older snapshots, are retired.
const (
	secExternal byte = 1 // external graph, rdf binary codec
	secLocal    byte = 2 // local graph, rdf binary codec
	secOntology byte = 3 // ontology as a graph, rdf binary codec
	secLinks    byte = 4 // ordered training links
	secMeta     byte = 5 // JSON metadata
	secModel    byte = 9 // the served model: learn stats and rules
)

// Snapshot is one full checkpoint of the service state: everything a
// restarted process needs to answer queries exactly as before, up to and
// including WAL sequence number Seq.
type Snapshot struct {
	// Seq is the last WAL sequence number the snapshot covers; records
	// with larger numbers must be replayed on top.
	Seq uint64

	External *rdf.Graph
	Local    *rdf.Graph
	// Ontology is the class hierarchy serialized back to triples
	// (ontology.Ontology.ToGraph / FromGraph round-trips it).
	Ontology *rdf.Graph
	// Links is the accumulated training set in exact order — order and
	// duplicates are preserved, so a learn record replayed on top
	// extends exactly the links the live service held.
	Links []core.Link
	Meta  Meta

	// Model is the served model's rules and learn stats (not its config
	// or training index); nil when no model was learned.
	Model *core.Model
}

// Meta is the snapshot's JSON section: model state and the comparator
// configuration active when the snapshot was taken.
type Meta struct {
	// Learned records whether a model was served; the model itself is
	// the Model section.
	Learned bool `json:"learned"`
	// Linker echoes the default comparator configuration, when it is
	// expressible by measure name.
	Linker *LinkerMeta `json:"linker,omitempty"`
	// Learner echoes the service's learner configuration, when it is
	// expressible in wire form (nil when a custom splitter function is
	// set). A learn record replayed on recovery, and every later learn,
	// learns with it; without it a restart with different defaults would
	// silently learn differently.
	Learner *LearnerMeta `json:"learner,omitempty"`
}

// LearnerMeta mirrors the service's learner config in wire form.
type LearnerMeta struct {
	// SupportThreshold is th; 0 means the paper default.
	SupportThreshold float64 `json:"support_threshold"`
	// Properties is the expert property selection (IRIs); empty means
	// all external data properties.
	Properties []string `json:"properties,omitempty"`
}

// LinkerMeta mirrors the service's default linker config in wire form.
type LinkerMeta struct {
	Threshold   float64          `json:"threshold"`
	Workers     int              `json:"workers"`
	Comparators []ComparatorMeta `json:"comparators"`
}

// ComparatorMeta is one comparator with its measure referenced by name.
// It is also the comparator of the service's link request.
type ComparatorMeta struct {
	ExternalProperty string  `json:"external_property"`
	LocalProperty    string  `json:"local_property"`
	Measure          string  `json:"measure"`
	Weight           float64 `json:"weight"`
}

// decodeLinks parses a links section: appendLinks output.
func decodeLinks(body []byte) ([]core.Link, error) {
	br := &byteReader{b: body}
	links, err := readLinks(br)
	if err != nil {
		return nil, err
	}
	return links, br.done()
}

// minRuleBytes is the fewest bytes a rule takes in the model section:
// two term kinds, seven empty strings, four counts and the flag.
const minRuleBytes = 2 + 7 + 4 + 1

// statsWire and ruleWire list the model section's fields in wire order,
// so appendModel and decodeModel cannot disagree. A rule's terms keep
// their kind, value, datatype and language, its segment every byte.
func statsWire(s *core.LearnStats) []*int {
	return []*int{&s.TSSize, &s.Properties, &s.DistinctSegments, &s.SegmentOccurrences,
		&s.SelectedSegmentOccurrences, &s.FrequentPairs, &s.CandidateClasses,
		&s.FrequentClasses, &s.RuleCount, &s.ClassesWithRules}
}

func ruleWire(r *core.Rule) ([]*rdf.TermKind, []*string, []*int) {
	return []*rdf.TermKind{&r.Property.Kind, &r.Class.Kind},
		[]*string{&r.Property.Value, &r.Property.Datatype, &r.Property.Lang, &r.Segment,
			&r.Class.Value, &r.Class.Datatype, &r.Class.Lang},
		[]*int{&r.PremiseCount, &r.JointCount, &r.ClassCount, &r.TSSize}
}

// appendModel serializes the served model: its learn stats, then its
// rules in order, each ending in its generalized flag.
func appendModel(b []byte, m *core.Model) []byte {
	b = appendInts(b, statsWire(&m.Stats))
	b = appendUvarint(b, uint64(len(m.Rules.Rules)))
	for _, r := range m.Rules.Rules {
		kinds, strs, ints := ruleWire(&r)
		for _, k := range kinds {
			b = append(b, byte(*k))
		}
		for _, s := range strs {
			b = appendString(b, *s)
		}
		b = appendInts(b, ints)
		gen := byte(0)
		if r.Generalized {
			gen = 1
		}
		b = append(b, gen)
	}
	return b
}

// decodeModel parses appendModel output into a model with no config and
// no training index. It accepts only what appendModel writes, so an
// accepted section re-encodes to the same bytes.
func decodeModel(body []byte) (*core.Model, error) {
	br := &byteReader{b: body}
	m := &core.Model{}
	if err := br.ints("learn stats", statsWire(&m.Stats)); err != nil {
		return nil, err
	}
	n, err := br.uvarint("rule count")
	if err != nil {
		return nil, err
	}
	// The bytes left bound what a count read from disk may preallocate.
	m.Rules.Rules = make([]core.Rule, 0, min(n, uint64(len(body)-br.pos)/minRuleBytes))
	for i := uint64(0); i < n; i++ {
		var r core.Rule
		kinds, strs, ints := ruleWire(&r)
		for _, k := range kinds {
			c, err := br.byte("term kind")
			if err != nil {
				return nil, err
			}
			if *k = rdf.TermKind(c); *k < rdf.IRIKind || *k > rdf.BlankKind {
				return nil, fmt.Errorf("store: decoding model: invalid term kind %d", c)
			}
		}
		for _, s := range strs {
			if *s, err = br.string("rule term"); err != nil {
				return nil, err
			}
		}
		if err := br.ints("rule counts", ints); err != nil {
			return nil, err
		}
		gen, err := br.byte("generalized flag")
		if err != nil {
			return nil, err
		}
		if gen > 1 {
			return nil, fmt.Errorf("store: decoding model: generalized flag %d", gen)
		}
		r.Generalized = gen == 1
		m.Rules.Rules = append(m.Rules.Rules, r)
	}
	return m, br.done()
}

// appendInts and byteReader.ints are the wire form of a list of
// non-negative ints: one varint each.
func appendInts(b []byte, fields []*int) []byte {
	for _, f := range fields {
		b = appendUvarint(b, uint64(*f))
	}
	return b
}

func (r *byteReader) ints(what string, fields []*int) error {
	for _, f := range fields {
		v, err := r.uvarint(what)
		if err != nil {
			return err
		}
		*f = int(v)
	}
	return nil
}

// snapshotPath names the snapshot file covering seq.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// writeSnapshotFile writes s atomically: encode to a temp file in the
// same directory, seal with a trailing CRC over everything before it,
// fsync, rename into place, fsync the directory. A crash mid-write
// leaves at most a stray .tmp file that Open ignores, and a failure at
// any step before the rename never publishes a partial snapshot.
func writeSnapshotFile(fs FS, dir string, s *Snapshot) (path string, size int64, err error) {
	buf, err := encodeSnapshot(s)
	if err != nil {
		return "", 0, err
	}
	path = snapshotPath(dir, s.Seq)
	tmp, err := fs.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	defer fs.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := fs.Rename(tmp.Name(), path); err != nil {
		return "", 0, fmt.Errorf("store: publishing snapshot: %w", err)
	}
	_ = fs.SyncDir(dir)
	return path, int64(len(buf)), nil
}

// encodeSnapshot returns the file form of s: the magic, the sequence
// number, every section and the CRC. A section is a type byte and a
// 4-byte length, reserved before its body is appended in place and
// filled in after, so the whole file is one growing slice.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	b := append([]byte(nil), snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, s.Seq)
	for _, sec := range []struct {
		typ byte
		g   *rdf.Graph
	}{{secExternal, s.External}, {secLocal, s.Local}, {secOntology, s.Ontology}} {
		g := sec.g
		if g == nil {
			g = rdf.NewGraph()
		}
		at := len(b)
		b = rdf.AppendSnapshot(append(b, sec.typ, 0, 0, 0, 0), g)
		endSection(b, at)
	}
	at := len(b)
	b, err := appendLinks(append(b, secLinks, 0, 0, 0, 0), s.Links)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot links: %w", err)
	}
	endSection(b, at)
	if s.Model != nil {
		at = len(b)
		b = appendModel(append(b, secModel, 0, 0, 0, 0), s.Model)
		endSection(b, at)
	}
	meta, err := json.Marshal(s.Meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot meta: %w", err)
	}
	at = len(b)
	b = append(append(b, secMeta, 0, 0, 0, 0), meta...)
	endSection(b, at)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// endSection fills in the length of the section whose header starts at
// b[at]: every byte appended after the header.
func endSection(b []byte, at int) {
	binary.LittleEndian.PutUint32(b[at+1:at+5], uint32(len(b)-at-5))
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+8+4 {
		return nil, fmt.Errorf("store: snapshot %s: too short (%d bytes)", path, len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot %s: bad magic", path)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("store: snapshot %s: crc mismatch (%08x != %08x)", path, got, want)
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(body[len(snapMagic) : len(snapMagic)+8])}
	rest := body[len(snapMagic)+8:]
	for len(rest) > 0 {
		if len(rest) < 5 {
			return nil, fmt.Errorf("store: snapshot %s: truncated section header", path)
		}
		typ := rest[0]
		n := binary.LittleEndian.Uint32(rest[1:5])
		rest = rest[5:]
		if uint64(len(rest)) < uint64(n) {
			return nil, fmt.Errorf("store: snapshot %s: section %d truncated", path, typ)
		}
		sec := rest[:n]
		rest = rest[n:]
		switch typ {
		case secExternal, secLocal, secOntology:
			g, err := rdf.DecodeSnapshot(bytes.NewReader(sec))
			if err != nil {
				return nil, fmt.Errorf("store: snapshot %s: section %d: %w", path, typ, err)
			}
			switch typ {
			case secExternal:
				s.External = g
			case secLocal:
				s.Local = g
			case secOntology:
				s.Ontology = g
			}
		case secLinks:
			if s.Links, err = decodeLinks(sec); err != nil {
				return nil, fmt.Errorf("store: snapshot %s: links: %w", path, err)
			}
		case secModel:
			if s.Model, err = decodeModel(sec); err != nil {
				return nil, fmt.Errorf("store: snapshot %s: model: %w", path, err)
			}
		case secMeta:
			if err := json.Unmarshal(sec, &s.Meta); err != nil {
				return nil, fmt.Errorf("store: snapshot %s: meta: %w", path, err)
			}
		default:
			// Unknown sections are skipped for forward compatibility.
		}
	}
	if s.External == nil || s.Local == nil || s.Ontology == nil {
		return nil, fmt.Errorf("store: snapshot %s: missing graph section", path)
	}
	return s, nil
}
