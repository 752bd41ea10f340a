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
// Every mutation (item upsert, item removal, learn, or a batch of many
// upserts/removes) is assigned a dense sequence number and appended to
// the current WAL segment as one CRC-framed record *before* it is
// applied to the in-memory state — a batch of 10k items costs one frame
// and one fsync, not 10k. A
// checkpoint rotates the WAL (so the snapshot boundary is exact), writes
// a snapshot of everything up to the rotation point from the service's
// immutable published bundle — writers keep appending to the new segment
// meanwhile — and then prunes the segments and snapshots the new
// checkpoint supersedes.
//
// Recovery is Open: load the newest snapshot that validates, replay the
// WAL records after its sequence number, and rotate to a fresh segment.
// A torn or corrupt record at the tail of the newest segment (the
// expected shape of a crash mid-append) is detected by its CRC or frame
// length and cleanly ignored; corruption in the middle of the log is an
// error, because records after it would silently vanish.
//
// The package depends on internal/rdf for graphs and terms and on
// internal/core for the served model; sides, items and links are
// wire-level values here, converted by the service layer.
package store

import (
	"encoding/binary"
	"fmt"
	"sort"
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

// Op discriminates mutation records. The numbering is part of the
// on-disk format.
type Op uint8

const (
	// OpUpsert replaces item descriptions on one side.
	OpUpsert Op = 1
	// OpRemove removes items (and their training links) on one side.
	OpRemove Op = 2
	// OpLearn extends or replaces the training links and relearns.
	OpLearn Op = 3
	// OpBatch groups many upsert/remove sub-ops into one atomic record:
	// one CRC frame, one fsync, one sequence slot. A torn frame drops the
	// whole batch, so recovery sees it wholly applied or wholly absent.
	OpBatch Op = 4
)

// Record is one logged service mutation. Exactly one of Upsert, Remove,
// Learn and Batch is set, matching Op.
type Record struct {
	// Seq is the record's sequence number, assigned by Store.Append.
	Seq uint64
	Op  Op

	Upsert *UpsertOp
	Remove *RemoveOp
	Learn  *LearnOp
	Batch  *BatchOp
}

// UpsertOp replaces the full description of each item on one side.
type UpsertOp struct {
	Side  Side
	Items []Item
}

// Item is one item description: property IRI -> literal values, plus
// (local side) ontology class IRIs.
type Item struct {
	ID      string
	Props   map[string][]string
	Classes []string
}

// RemoveOp removes the items with the given IRIs from one side.
type RemoveOp struct {
	Side Side
	IDs  []string
}

// LearnOp extends (or with Replace, supersedes) the accumulated training
// links and relearns the model.
type LearnOp struct {
	Replace bool
	Links   []LinkRef
}

// BatchOp is an ordered sequence of upsert/remove sub-ops committed as
// one record. Sub-ops are addressed as (Record.Seq, entry index); the
// record occupies a single sequence slot regardless of how many items
// it carries.
type BatchOp struct {
	Ops []BatchEntry
}

// BatchEntry is one sub-op of a batch. Exactly one field is set.
type BatchEntry struct {
	Upsert *UpsertOp
	Remove *RemoveOp
}

// Entries views the record's item mutations as a uniform op slice: a
// plain upsert or remove yields one entry, a batch yields its entries in
// order, and a learn (or unset) record yields nil. Replay and live
// commit both iterate this view, so batches take the exact code path of
// single-op records.
func (r *Record) Entries() []BatchEntry {
	switch r.Op {
	case OpUpsert:
		return []BatchEntry{{Upsert: r.Upsert}}
	case OpRemove:
		return []BatchEntry{{Remove: r.Remove}}
	case OpBatch:
		return r.Batch.Ops
	}
	return nil
}

// LinkRef is one training link endpoint pair. Kinds are rdf.TermKind
// bytes (IRI or blank node), kept as raw bytes so this package does not
// depend on the term model.
type LinkRef struct {
	ExternalKind uint8
	External     string
	LocalKind    uint8
	Local        string
}

// appendLinkRef and readLinkRef are the single wire form of a LinkRef,
// shared by the WAL learn record and the snapshot links section.
func appendLinkRef(b []byte, ln LinkRef) []byte {
	b = append(b, ln.ExternalKind)
	b = appendString(b, ln.External)
	b = append(b, ln.LocalKind)
	b = appendString(b, ln.Local)
	return b
}

func readLinkRef(br *byteReader) (LinkRef, error) {
	var ln LinkRef
	var err error
	if ln.ExternalKind, err = br.byte("external kind"); err != nil {
		return ln, err
	}
	if ln.External, err = br.string("external endpoint"); err != nil {
		return ln, err
	}
	if ln.LocalKind, err = br.byte("local kind"); err != nil {
		return ln, err
	}
	ln.Local, err = br.string("local endpoint")
	return ln, err
}

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

// appendUpsertOp and readUpsertOp are the single wire form of an
// UpsertOp payload, shared by the plain upsert record and batch entries.
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

// appendRemoveOp and readRemoveOp are the single wire form of a
// RemoveOp payload, shared by the plain remove record and batch entries.
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
// the sequence number and frame). Map keys are emitted sorted so equal
// records encode to equal bytes.
func (r *Record) encodeBody() ([]byte, error) {
	b := make([]byte, 0, 256)
	b = append(b, byte(r.Op))
	switch r.Op {
	case OpUpsert:
		b = appendUpsertOp(b, r.Upsert)
	case OpRemove:
		b = appendRemoveOp(b, r.Remove)
	case OpBatch:
		bt := r.Batch
		b = appendUvarint(b, uint64(len(bt.Ops)))
		for _, e := range bt.Ops {
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
	case OpLearn:
		l := r.Learn
		rep := byte(0)
		if l.Replace {
			rep = 1
		}
		b = append(b, rep)
		b = appendUvarint(b, uint64(len(l.Links)))
		for _, ln := range l.Links {
			b = appendLinkRef(b, ln)
		}
	default:
		return nil, fmt.Errorf("store: encoding record: unknown op %d", r.Op)
	}
	return b, nil
}

// decodeBody parses an operation payload produced by encodeBody into r
// (which carries Seq already).
func (r *Record) decodeBody(body []byte) error {
	br := &byteReader{b: body}
	op, err := br.byte("op")
	if err != nil {
		return err
	}
	r.Op = Op(op)
	switch r.Op {
	case OpUpsert:
		if r.Upsert, err = readUpsertOp(br); err != nil {
			return err
		}
	case OpRemove:
		if r.Remove, err = readRemoveOp(br); err != nil {
			return err
		}
	case OpBatch:
		n, err := br.uvarint("batch entry count")
		if err != nil {
			return err
		}
		bt := &BatchOp{Ops: make([]BatchEntry, 0, min(n, 1024))}
		for i := uint64(0); i < n; i++ {
			sub, err := br.byte("batch entry op")
			if err != nil {
				return err
			}
			var e BatchEntry
			switch Op(sub) {
			case OpUpsert:
				if e.Upsert, err = readUpsertOp(br); err != nil {
					return err
				}
			case OpRemove:
				if e.Remove, err = readRemoveOp(br); err != nil {
					return err
				}
			default:
				return fmt.Errorf("store: decoding batch: invalid entry op %d", sub)
			}
			bt.Ops = append(bt.Ops, e)
		}
		r.Batch = bt
	case OpLearn:
		rep, err := br.byte("replace flag")
		if err != nil {
			return err
		}
		l := &LearnOp{Replace: rep == 1}
		n, err := br.uvarint("link count")
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			ln, err := readLinkRef(br)
			if err != nil {
				return err
			}
			l.Links = append(l.Links, ln)
		}
		r.Learn = l
	default:
		return fmt.Errorf("store: decoding record: unknown op %d", op)
	}
	return br.done()
}
