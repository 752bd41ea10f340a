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
	Links []LinkRef
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
type ComparatorMeta struct {
	ExternalProperty string  `json:"external_property"`
	LocalProperty    string  `json:"local_property"`
	Measure          string  `json:"measure"`
	Weight           float64 `json:"weight"`
}

// encodeLinks serializes the ordered link list.
func encodeLinks(links []LinkRef) []byte {
	b := make([]byte, 0, 32*len(links)+8)
	b = appendUvarint(b, uint64(len(links)))
	for _, ln := range links {
		b = appendLinkRef(b, ln)
	}
	return b
}

// minLinkRefBytes is the fewest bytes a link takes in the links
// section: two kinds and two empty strings.
const minLinkRefBytes = 4

// decodeLinks parses encodeLinks output.
func decodeLinks(body []byte) ([]LinkRef, error) {
	br := &byteReader{b: body}
	n, err := br.uvarint("link count")
	if err != nil {
		return nil, err
	}
	// The bytes left bound what a count read from disk may preallocate.
	links := make([]LinkRef, 0, min(n, uint64(len(body)-br.pos)/minLinkRefBytes))
	for i := uint64(0); i < n; i++ {
		ln, err := readLinkRef(br)
		if err != nil {
			return nil, err
		}
		links = append(links, ln)
	}
	if err := br.done(); err != nil {
		return nil, err
	}
	return links, nil
}

// minRuleBytes is the fewest bytes a rule takes in the model section:
// two term kinds, seven empty strings, four counts and the flag.
const minRuleBytes = 2 + 7 + 4 + 1

// statsWire and ruleWire list the model section's fields in wire order,
// so encodeModel and decodeModel cannot disagree. A rule's terms keep
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

// encodeModel serializes the served model: its learn stats, then its
// rules in order, each ending in its generalized flag.
func encodeModel(m *core.Model) []byte {
	b := appendInts(nil, statsWire(&m.Stats))
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

// decodeModel parses encodeModel output into a model with no config and
// no training index. It accepts only what encodeModel writes, so an
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
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], s.Seq)
	buf.Write(seq[:])

	writeSection := func(typ byte, body []byte) {
		var hdr [5]byte
		hdr[0] = typ
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(body)))
		buf.Write(hdr[:])
		buf.Write(body)
	}
	encodeGraph := func(g *rdf.Graph) ([]byte, error) {
		if g == nil {
			g = rdf.NewGraph()
		}
		var gb bytes.Buffer
		if err := rdf.EncodeSnapshot(&gb, g); err != nil {
			return nil, err
		}
		return gb.Bytes(), nil
	}
	for _, sec := range []struct {
		typ byte
		g   *rdf.Graph
	}{{secExternal, s.External}, {secLocal, s.Local}, {secOntology, s.Ontology}} {
		body, err := encodeGraph(sec.g)
		if err != nil {
			return "", 0, fmt.Errorf("store: encoding snapshot section %d: %w", sec.typ, err)
		}
		writeSection(sec.typ, body)
	}
	writeSection(secLinks, encodeLinks(s.Links))
	if s.Model != nil {
		writeSection(secModel, encodeModel(s.Model))
	}
	meta, err := json.Marshal(s.Meta)
	if err != nil {
		return "", 0, fmt.Errorf("store: encoding snapshot meta: %w", err)
	}
	writeSection(secMeta, meta)

	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf.Bytes(), castagnoli))
	buf.Write(crc[:])

	path = snapshotPath(dir, s.Seq)
	tmp, err := fs.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	defer fs.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
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
	return path, int64(buf.Len()), nil
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
