// Package store is the durability subsystem of the live linking service:
// an append-only write-ahead log of service mutations plus periodic full
// snapshots of the published state, giving a restarted process back the
// exact corpus, training set and model it had before it died.
//
// # Design
//
//	dir/
//	  snap-<seq>.snap   full snapshots (binary graph sections, CRC-sealed)
//	  wal-<seq>.log     WAL segments; <seq> is the first record's sequence
//
// Every mutation is assigned a dense sequence number and appended to the
// current WAL segment as one CRC-framed record *before* it is applied to
// the in-memory state. A record is one of two kinds. A batch carries an
// ordered mix of item upserts and removals: a single-item upsert is a
// one-entry batch, and a bulk load of 10k items costs one frame and one
// fsync, not 10k. A learn extends or replaces the training links, each a
// core.Link whose endpoints are IRIs or blank nodes. Earlier builds
// logged a single upsert or removal as a record of its own; the decoder
// still reads those, as one-entry batches, so a WAL tail written before
// an upgrade replays after it.
//
// A checkpoint rotates the WAL (so the snapshot boundary is exact),
// writes a snapshot of everything up to the rotation point from the
// service's immutable published bundle — writers keep appending to the
// new segment meanwhile — and then prunes the segments and snapshots the
// new checkpoint supersedes.
//
// Recovery is Open: load the newest snapshot that validates, replay the
// WAL records after its sequence number, and rotate to a fresh segment.
// A torn or corrupt record at the tail of the newest segment (the
// expected shape of a crash mid-append) is detected by its CRC or frame
// length and cleanly ignored; corruption in the middle of the log is an
// error, because records after it would silently vanish.
//
// The package depends on internal/rdf for graphs and terms and on
// internal/core for training links and the served model. The service's
// requests decode straight into Item and ComparatorMeta, and ParseSide
// reads their side.
package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rdf"
)

// Side selects the external or local graph of the corpus.
type Side uint8

// Side values. The numbering is part of the on-disk format.
const (
	// External addresses the external source graph (SE).
	External Side = 0
	// Local addresses the local catalog graph (SL).
	Local Side = 1
)

// ParseSide parses a side's wire name, "external" or "local".
func ParseSide(s string) (Side, error) {
	switch s {
	case "external":
		return External, nil
	case "local":
		return Local, nil
	}
	return 0, fmt.Errorf("side must be %q or %q, got %q", "external", "local", s)
}

// Op discriminates mutation records and batch entries. The numbering is
// part of the on-disk format.
type Op uint8

const (
	// OpUpsert is a batch entry that replaces item descriptions on one
	// side. Earlier builds also wrote it as a record of its own.
	OpUpsert Op = 1
	// OpRemove is a batch entry that removes items (and their training
	// links) on one side. Earlier builds also wrote it as a record.
	OpRemove Op = 2
	// OpLearn extends or replaces the training links and relearns.
	OpLearn Op = 3
	// OpBatch groups upsert and remove entries into one atomic record:
	// one CRC frame, one fsync, one sequence slot. A torn frame drops the
	// whole batch, so recovery sees it wholly applied or wholly absent.
	OpBatch Op = 4
)

// Record is one logged service mutation: Batch is set for OpBatch and
// Learn for OpLearn. The encoder writes only these two ops; a plain
// upsert or remove record of an earlier build decodes as an OpBatch
// record of one entry.
type Record struct {
	// Seq is the record's sequence number, assigned by Store.Append.
	Seq uint64
	Op  Op

	// Batch is the ordered item writes, addressed as (Seq, entry index):
	// the record occupies a single sequence slot however many items it
	// carries.
	Batch []BatchEntry
	Learn *LearnOp
}

// BatchEntry is one item write of a batch. Exactly one field is set.
type BatchEntry struct {
	Upsert *UpsertOp
	Remove *RemoveOp
}

// UpsertOp replaces the full description of each item on one side.
type UpsertOp struct {
	Side  Side
	Items []Item
}

// Item is one item description: property IRI -> literal values, plus
// (local side) ontology class IRIs. Its JSON form is the service's
// upsert item and, with a remove marker, its bulk NDJSON line.
type Item struct {
	ID      string              `json:"id"`
	Props   map[string][]string `json:"properties"`
	Classes []string            `json:"classes,omitempty"`
}

// RemoveOp removes the items with the given IRIs from one side.
type RemoveOp struct {
	Side Side
	IDs  []string
}

// LearnOp extends (or with Replace, supersedes) the accumulated training
// links and relearns the model. Every endpoint is an IRI or a blank node.
type LearnOp struct {
	Replace bool
	Links   []core.Link
}

// minLinkBytes is the fewest bytes a link takes on disk: two kind bytes
// and two empty strings.
const minLinkBytes = 4

// appendLinks and readLinks are the single wire form of a link list,
// shared by the learn record and the snapshot links section: a count,
// then each link's external and local endpoint as a kind byte and a
// value. Both directions refuse an endpoint that is not an IRI or a
// blank node, so the log never holds a record its decoder rejects.
func appendLinks(b []byte, links []core.Link) ([]byte, error) {
	b = appendUvarint(b, uint64(len(links)))
	for i, l := range links {
		for _, t := range [2]rdf.Term{l.External, l.Local} {
			if !linkEndpoint(t.Kind) {
				return nil, fmt.Errorf("store: encoding link %d: endpoint %v is not an IRI or a blank node", i, t)
			}
			b = append(b, byte(t.Kind))
			b = appendString(b, t.Value)
		}
	}
	return b, nil
}

func readLinks(br *byteReader) ([]core.Link, error) {
	n, err := br.uvarint("link count")
	if err != nil || n == 0 {
		return nil, err
	}
	// The bytes left bound what a count read from disk may preallocate.
	links := make([]core.Link, 0, min(n, uint64(len(br.b)-br.pos)/minLinkBytes))
	for i := uint64(0); i < n; i++ {
		var l core.Link
		for _, t := range [2]*rdf.Term{&l.External, &l.Local} {
			k, err := br.byte("link endpoint kind")
			if err != nil {
				return nil, err
			}
			if t.Kind = rdf.TermKind(k); !linkEndpoint(t.Kind) {
				return nil, fmt.Errorf("store: decoding link %d: endpoint kind %d is not an IRI or a blank node", i, k)
			}
			if t.Value, err = br.string("link endpoint"); err != nil {
				return nil, err
			}
		}
		links = append(links, l)
	}
	return links, nil
}

// linkEndpoint reports whether a link endpoint may have kind k.
func linkEndpoint(k rdf.TermKind) bool { return k == rdf.IRIKind || k == rdf.BlankKind }

// appendUvarint appends v as an unsigned varint.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// byteReader is a cursor over an encoded record body.
type byteReader struct {
	b   []byte
	pos int
}

// uvarint reads a varint in its shortest form, the only one
// appendUvarint writes.
func (r *byteReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("store: decoding %s: truncated varint", what)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		return 0, fmt.Errorf("store: decoding %s: overlong varint", what)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) string(what string) (string, error) {
	n, err := r.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if uint64(len(r.b)-r.pos) < n {
		return "", fmt.Errorf("store: decoding %s: %d bytes wanted, %d left", what, n, len(r.b)-r.pos)
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *byteReader) byte(what string) (byte, error) {
	if r.pos >= len(r.b) {
		return 0, fmt.Errorf("store: decoding %s: truncated", what)
	}
	c := r.b[r.pos]
	r.pos++
	return c, nil
}

func (r *byteReader) done() error {
	if r.pos != len(r.b) {
		return fmt.Errorf("store: decoding record: %d trailing bytes", len(r.b)-r.pos)
	}
	return nil
}

// appendUpsertOp and readUpsertOp are the wire form of an upsert entry's
// payload, which a plain upsert record of an earlier build also holds.
// Map keys are emitted sorted so equal ops encode to equal bytes.
func appendUpsertOp(b []byte, u *UpsertOp) []byte {
	b = append(b, byte(u.Side))
	b = appendUvarint(b, uint64(len(u.Items)))
	for _, it := range u.Items {
		b = appendString(b, it.ID)
		props := make([]string, 0, len(it.Props))
		for p := range it.Props {
			props = append(props, p)
		}
		sort.Strings(props)
		b = appendUvarint(b, uint64(len(props)))
		for _, p := range props {
			b = appendString(b, p)
			vals := it.Props[p]
			b = appendUvarint(b, uint64(len(vals)))
			for _, v := range vals {
				b = appendString(b, v)
			}
		}
		b = appendUvarint(b, uint64(len(it.Classes)))
		for _, c := range it.Classes {
			b = appendString(b, c)
		}
	}
	return b
}

func readUpsertOp(br *byteReader) (*UpsertOp, error) {
	side, err := br.byte("side")
	if err != nil {
		return nil, err
	}
	if side > 1 {
		return nil, fmt.Errorf("store: decoding record: invalid side %d", side)
	}
	u := &UpsertOp{Side: Side(side)}
	n, err := br.uvarint("item count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var it Item
		if it.ID, err = br.string("item id"); err != nil {
			return nil, err
		}
		np, err := br.uvarint("property count")
		if err != nil {
			return nil, err
		}
		if np > 0 {
			it.Props = make(map[string][]string, min(np, 1024))
		}
		for j := uint64(0); j < np; j++ {
			p, err := br.string("property IRI")
			if err != nil {
				return nil, err
			}
			nv, err := br.uvarint("value count")
			if err != nil {
				return nil, err
			}
			vals := make([]string, 0, min(nv, 1024))
			for k := uint64(0); k < nv; k++ {
				v, err := br.string("property value")
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			it.Props[p] = vals
		}
		nc, err := br.uvarint("class count")
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nc; j++ {
			c, err := br.string("class IRI")
			if err != nil {
				return nil, err
			}
			it.Classes = append(it.Classes, c)
		}
		u.Items = append(u.Items, it)
	}
	return u, nil
}

// appendRemoveOp and readRemoveOp are the wire form of a remove entry's
// payload, which a plain remove record of an earlier build also holds.
func appendRemoveOp(b []byte, rm *RemoveOp) []byte {
	b = append(b, byte(rm.Side))
	b = appendUvarint(b, uint64(len(rm.IDs)))
	for _, id := range rm.IDs {
		b = appendString(b, id)
	}
	return b
}

func readRemoveOp(br *byteReader) (*RemoveOp, error) {
	side, err := br.byte("side")
	if err != nil {
		return nil, err
	}
	if side > 1 {
		return nil, fmt.Errorf("store: decoding record: invalid side %d", side)
	}
	rm := &RemoveOp{Side: Side(side)}
	n, err := br.uvarint("id count")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		id, err := br.string("item id")
		if err != nil {
			return nil, err
		}
		rm.IDs = append(rm.IDs, id)
	}
	return rm, nil
}

// encodeBody serializes the record's operation payload (everything but
// the sequence number and frame): the op byte, then a batch's entries or
// a learn's replace flag and links.
func (r *Record) encodeBody() ([]byte, error) {
	b := make([]byte, 0, 256)
	b = append(b, byte(r.Op))
	switch r.Op {
	case OpBatch:
		b = appendUvarint(b, uint64(len(r.Batch)))
		for _, e := range r.Batch {
			switch {
			case e.Upsert != nil && e.Remove == nil:
				b = append(b, byte(OpUpsert))
				b = appendUpsertOp(b, e.Upsert)
			case e.Remove != nil && e.Upsert == nil:
				b = append(b, byte(OpRemove))
				b = appendRemoveOp(b, e.Remove)
			default:
				return nil, fmt.Errorf("store: encoding batch: entry must set exactly one of upsert/remove")
			}
		}
		return b, nil
	case OpLearn:
		rep := byte(0)
		if r.Learn.Replace {
			rep = 1
		}
		return appendLinks(append(b, rep), r.Learn.Links)
	}
	return nil, fmt.Errorf("store: encoding record: unknown op %d", r.Op)
}

// decodeBody parses an operation payload into r (which carries Seq
// already): what encodeBody writes, and the plain upsert and remove
// records of earlier builds, which become one-entry batches.
func (r *Record) decodeBody(body []byte) error {
	br := &byteReader{b: body}
	op, err := br.byte("op")
	if err != nil {
		return err
	}
	switch r.Op = Op(op); r.Op {
	case OpUpsert, OpRemove:
		e, err := readEntry(br, r.Op)
		if err != nil {
			return err
		}
		r.Op, r.Batch = OpBatch, []BatchEntry{e}
	case OpBatch:
		n, err := br.uvarint("batch entry count")
		if err != nil {
			return err
		}
		r.Batch = make([]BatchEntry, 0, min(n, 1024))
		for i := uint64(0); i < n; i++ {
			sub, err := br.byte("batch entry op")
			if err != nil {
				return err
			}
			e, err := readEntry(br, Op(sub))
			if err != nil {
				return err
			}
			r.Batch = append(r.Batch, e)
		}
	case OpLearn:
		rep, err := br.byte("replace flag")
		if err != nil {
			return err
		}
		r.Learn = &LearnOp{Replace: rep == 1}
		if r.Learn.Links, err = readLinks(br); err != nil {
			return err
		}
	default:
		return fmt.Errorf("store: decoding record: unknown op %d", op)
	}
	return br.done()
}

// readEntry reads the payload of one upsert or remove entry.
func readEntry(br *byteReader, op Op) (e BatchEntry, err error) {
	switch op {
	case OpUpsert:
		e.Upsert, err = readUpsertOp(br)
	case OpRemove:
		e.Remove, err = readRemoveOp(br)
	default:
		err = fmt.Errorf("store: decoding batch: invalid entry op %d", op)
	}
	return e, err
}
