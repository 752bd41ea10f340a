package rdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unsafe"
)

// Binary snapshot codec: a compact length-prefixed serialization of a
// graph, built for durability checkpoints where the N-Triples text path
// is too slow. Three things make it fast rather than merely smaller:
//
//   - an interned term table, written sorted, so every term's strings are
//     encoded once and triples are three varint indexes;
//   - triples sorted as packed integer keys (21 bits per term index),
//     avoiding any Term comparison on the hot path;
//   - a bulk graph loader on decode that builds the store's copy-on-write
//     SPO index directly from the sorted keys with exact-sized maps — no
//     per-triple Add, no duplicate probing, no map growth — and backs
//     every term string by the input bytes themselves.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic   "RDFBIN1\n" (8 bytes)
//	#terms  term table length
//	terms   kind byte, value string; literals add datatype and lang
//	        strings (a string is a varint length followed by raw bytes),
//	        in Term.Compare order
//	#triples
//	triples three term-table indexes (s, p, o) each, in sorted order
//
// Encoding is deterministic: equal graphs encode to equal bytes. Those
// bytes are the graph's canonical encoding: terms strictly ascending,
// every term used by some triple, packed keys strictly ascending and
// every varint as short as it can be. The decoder accepts more (unsorted
// or unused terms, repeated triples, overlong varints), but only a
// canonical input on the packed path is kept as the decoded graph's
// memo, so a memo is always what a fresh encode would write.
// AppendSnapshot appends a current memo instead of encoding again, which
// lets a checkpoint pay only for the graphs that changed since the last
// one. Framing, checksums and versioning beyond the magic are the
// caller's concern (internal/store wraps snapshot sections with CRCs).

// binaryMagic guards the snapshot format; bump the digit on breaking
// layout changes.
const binaryMagic = "RDFBIN1\n"

// maxBinaryString caps a single encoded string, mirroring the N-Triples
// reader's line cap, so a corrupt length prefix cannot ask the decoder
// to allocate gigabytes.
const maxBinaryString = 16 * 1024 * 1024

// termBits is the index width inside a packed triple key. Graphs with
// more than 2^21 (~2M) distinct terms take the unpacked fallback path.
const termBits = 21

const termMask = 1<<termBits - 1

// snapshotMemo is a graph's snapshot encoding at version ver. Its bytes
// are never written once the memo exists.
type snapshotMemo struct {
	ver uint64
	b   []byte
}

// EncodeSnapshot writes g's triples in the binary snapshot format, as
// AppendSnapshot encodes them.
func EncodeSnapshot(w io.Writer, g *Graph) error {
	if _, err := w.Write(AppendSnapshot(nil, g)); err != nil {
		return fmt.Errorf("rdf: encoding snapshot: %w", err)
	}
	return nil
}

// AppendSnapshot appends g's triples in the binary snapshot format to dst
// and returns the extended slice. The graph is read-only during the
// call, so encoding a frozen Snapshot is safe concurrently with
// mutations of the live graph it came from, and with other encodings of
// the same snapshot.
//
// A graph that remembers its encoding for its current version appends
// that copy instead of encoding again. A frozen snapshot remembers what
// it was first encoded to; a live graph remembers only what it was
// decoded from, so encoding one stores nothing.
func AppendSnapshot(dst []byte, g *Graph) []byte {
	if m := g.enc.Load(); m != nil && m.ver == g.ver {
		return append(dst, m.b...)
	}
	if !g.Frozen() {
		return appendEncoding(dst, g)
	}
	b := appendEncoding(nil, g)
	g.enc.Store(&snapshotMemo{ver: g.ver, b: b})
	return append(dst, b...)
}

// appendEncoding encodes g onto dst, growing dst once by the exact size
// of the encoding.
func appendEncoding(dst []byte, g *Graph) []byte {
	// One pass over the graph: intern terms in first-use order and record
	// every triple as an id triplet. The SPO index is walked directly —
	// subjects intern once per subject and predicates once per (s, p)
	// run, and no Triple values are materialized. Interning goes through
	// a purpose-built open-addressing table: the runtime map's generic
	// machinery was the single hottest piece of the encoder.
	it := newInternTable(g.n + 8)
	type idTriple struct{ s, p, o uint32 }
	tris := make([]idTriple, 0, g.n)
	for si := range g.spo.shards {
		for s, b2 := range g.spo.shards[si].m {
			sid := it.intern(s)
			b2.each(func(p Term, objs *bucket3) bool {
				pid := it.intern(p)
				objs.each(func(o Term) bool {
					tris = append(tris, idTriple{sid, pid, it.intern(o)})
					return true
				})
				return true
			})
		}
	}
	table := it.terms

	// Sort the table and derive old-id → sorted-id, so triple ordering
	// below never compares Terms again.
	order := make([]uint32, len(table))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return table[a].Compare(table[b]) })
	remap := make([]uint32, len(table))
	for rank, old := range order {
		remap[old] = uint32(rank)
	}
	size := len(binaryMagic) + uvarintLen(uint64(len(table))) + it.bytes + uvarintLen(uint64(len(tris)))

	if len(table) <= 1<<termBits {
		// Pack every triple into one integer and sort — term ids are in
		// Compare order, so integer order is triple order. Sorted keys
		// are written as deltas: one small varint per triple instead of
		// three (the decoder mirrors the table-size condition, so no
		// format flag is needed).
		keys := make([]uint64, len(tris))
		for i, t := range tris {
			keys[i] = uint64(remap[t.s])<<(2*termBits) | uint64(remap[t.p])<<termBits | uint64(remap[t.o])
		}
		slices.Sort(keys)
		prev := uint64(0)
		for _, k := range keys {
			size += uvarintLen(k - prev)
			prev = k
		}
		buf := appendHeader(slices.Grow(dst, size), table, order, len(tris))
		prev = 0
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, k-prev)
			prev = k
		}
		return buf
	}
	// Fallback for gigantic term tables: sort the id triplets with
	// explicit three-way comparison.
	slices.SortFunc(tris, func(a, b idTriple) int {
		if c := int(remap[a.s]) - int(remap[b.s]); c != 0 {
			return c
		}
		if c := int(remap[a.p]) - int(remap[b.p]); c != 0 {
			return c
		}
		return int(remap[a.o]) - int(remap[b.o])
	})
	for _, t := range tris {
		size += uvarintLen(uint64(remap[t.s])) + uvarintLen(uint64(remap[t.p])) + uvarintLen(uint64(remap[t.o]))
	}
	buf := appendHeader(slices.Grow(dst, size), table, order, len(tris))
	for _, t := range tris {
		buf = binary.AppendUvarint(buf, uint64(remap[t.s]))
		buf = binary.AppendUvarint(buf, uint64(remap[t.p]))
		buf = binary.AppendUvarint(buf, uint64(remap[t.o]))
	}
	return buf
}

// appendHeader appends everything before the triples: the magic, the
// term table in the order order gives, and the triple count.
func appendHeader(buf []byte, table []Term, order []uint32, nTriples int) []byte {
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, id := range order {
		t := &table[id]
		buf = append(buf, byte(t.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
		buf = append(buf, t.Value...)
		if t.Kind == LiteralKind {
			buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
			buf = append(buf, t.Datatype...)
			buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
			buf = append(buf, t.Lang...)
		}
	}
	return binary.AppendUvarint(buf, uint64(nTriples))
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// termSize is the length of t's entry in the term table.
func termSize(t Term) int {
	n := 1 + uvarintLen(uint64(len(t.Value))) + len(t.Value)
	if t.Kind == LiteralKind {
		n += uvarintLen(uint64(len(t.Datatype))) + len(t.Datatype) + uvarintLen(uint64(len(t.Lang))) + len(t.Lang)
	}
	return n
}

// internTable is a linear-probing Term -> id table for the encoder:
// FNV hashing over the term fields and an int32 slot array beat the
// generic runtime map on this workload by avoiding its per-operation
// overhead.
type internTable struct {
	slots []int32 // term index + 1; 0 = empty
	terms []Term
	bytes int // encoded size of the term table entries
}

// newInternTable sizes the table for roughly n distinct terms.
func newInternTable(n int) *internTable {
	capacity := 16
	for capacity < 2*n {
		capacity <<= 1
	}
	return &internTable{slots: make([]int32, capacity), terms: make([]Term, 0, n)}
}

// hashTerm is FNV-1a over every field of the term.
func hashTerm(t Term) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint32(t.Value[i])) * 16777619
	}
	h = (h ^ uint32(t.Kind)) * 16777619
	for i := 0; i < len(t.Lang); i++ {
		h = (h ^ uint32(t.Lang[i])) * 16777619
	}
	for i := 0; i < len(t.Datatype); i++ {
		h = (h ^ uint32(t.Datatype[i])) * 16777619
	}
	return h
}

// intern returns t's id, assigning the next one on first sight.
func (it *internTable) intern(t Term) uint32 {
	mask := uint32(len(it.slots) - 1)
	i := hashTerm(t) & mask
	for {
		s := it.slots[i]
		if s == 0 {
			break
		}
		if it.terms[s-1] == t {
			return uint32(s - 1)
		}
		i = (i + 1) & mask
	}
	id := uint32(len(it.terms))
	it.terms = append(it.terms, t)
	it.bytes += termSize(t)
	it.slots[i] = int32(id + 1)
	if len(it.terms)*4 > len(it.slots)*3 { // load factor 3/4
		it.grow()
	}
	return id
}

// grow doubles the slot array and reinserts every term.
func (it *internTable) grow() {
	slots := make([]int32, 2*len(it.slots))
	mask := uint32(len(slots) - 1)
	for idx, t := range it.terms {
		i := hashTerm(t) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(idx + 1)
	}
	it.slots = slots
}

// binReader is a cursor over the raw snapshot bytes. blob is the same
// bytes as one string, so term strings can share its backing array
// instead of allocating per field. loose records that the input is not
// canonical, so a fresh encode would not reproduce it.
type binReader struct {
	b     []byte
	blob  string
	pos   int
	loose bool
}

func (r *binReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("rdf: decoding snapshot: reading %s: truncated varint", what)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		r.loose = true // a shorter varint holds the same value
	}
	r.pos += n
	return v, nil
}

func (r *binReader) string(what string) (string, error) {
	// Note: the error paths must not build strings eagerly — this runs
	// once per term field.
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxBinaryString {
		return "", fmt.Errorf("rdf: decoding snapshot: %s length %d exceeds cap", what, n)
	}
	if uint64(len(r.b)-r.pos) < n {
		return "", fmt.Errorf("rdf: decoding snapshot: %s truncated", what)
	}
	s := r.blob[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return s, nil
}

func (r *binReader) byte(what string) (byte, error) {
	if r.pos >= len(r.b) {
		return 0, fmt.Errorf("rdf: decoding snapshot: reading %s: truncated", what)
	}
	c := r.b[r.pos]
	r.pos++
	return c, nil
}

// DecodeSnapshot reads a graph written by EncodeSnapshot. Corrupt input
// (bad magic, dangling term indexes, truncated data, invalid triples,
// trailing bytes) returns an error; the decoder never trusts a length
// prefix with an allocation larger than the bytes actually present.
//
// When the input is the canonical encoding of the graph it holds, the
// graph keeps it as its encoding memo (see AppendSnapshot). The memo is
// the very buffer the term strings point into, so it costs no memory.
func DecodeSnapshot(rd io.Reader) (*Graph, error) {
	var raw []byte
	var err error
	if sized, ok := rd.(interface{ Len() int }); ok {
		// bytes.Reader and friends: read in one exact allocation instead
		// of io.ReadAll's doubling chain.
		raw = make([]byte, sized.Len())
		_, err = io.ReadFull(rd, raw)
	} else if raw, err = io.ReadAll(rd); cap(raw) > len(raw) {
		raw = slices.Clone(raw) // the graph keeps raw: drop the spare capacity
	}
	if err != nil {
		return nil, fmt.Errorf("rdf: decoding snapshot: %w", err)
	}
	if len(raw) < len(binaryMagic) || string(raw[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("rdf: decoding snapshot: bad magic")
	}
	// raw is this call's own buffer and nothing writes it from here on,
	// so the term strings may share it without a copy.
	r := &binReader{b: raw, blob: unsafe.String(unsafe.SliceData(raw), len(raw)), pos: len(binaryMagic)}

	nTerms, err := r.uvarint("term count")
	if err != nil {
		return nil, err
	}
	if nTerms > uint64(len(raw)-r.pos)/2 { // every term takes >= 2 bytes
		return nil, fmt.Errorf("rdf: decoding snapshot: implausible term count %d", nTerms)
	}
	table := make([]Term, 0, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		kind, err := r.byte("term kind")
		if err != nil {
			return nil, err
		}
		t := Term{Kind: TermKind(kind)}
		switch t.Kind {
		case IRIKind, BlankKind:
			if t.Value, err = r.string("term value"); err != nil {
				return nil, err
			}
		case LiteralKind:
			if t.Value, err = r.string("term value"); err != nil {
				return nil, err
			}
			if t.Datatype, err = r.string("term datatype"); err != nil {
				return nil, err
			}
			if t.Lang, err = r.string("term lang"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("rdf: decoding snapshot: term %d: invalid kind %d", i, kind)
		}
		if !r.loose && i > 0 && table[i-1].Compare(t) >= 0 {
			r.loose = true
		}
		table = append(table, t)
	}

	nTriples, err := r.uvarint("triple count")
	if err != nil {
		return nil, err
	}
	if nTriples > uint64(len(raw)-r.pos) { // every triple takes >= 1 byte
		return nil, fmt.Errorf("rdf: decoding snapshot: implausible triple count %d", nTriples)
	}
	if len(table) > 1<<termBits {
		return decodeUnpacked(r, table, nTriples)
	}
	keys := make([]uint64, 0, nTriples)
	used := make([]uint64, (len(table)+63)/64) // bit per term a triple names
	prev := uint64(0)
	for i := uint64(0); i < nTriples; i++ {
		delta, err := r.uvarint("triple delta")
		if err != nil {
			return nil, err
		}
		k := prev + delta
		if k < prev || k >= 1<<(3*termBits) {
			return nil, fmt.Errorf("rdf: decoding snapshot: triple %d: key out of range", i)
		}
		if delta == 0 && i > 0 {
			r.loose = true // a repeated triple
		}
		prev = k
		s, p, o := k>>(2*termBits), k>>termBits&termMask, k&termMask
		if s >= uint64(len(table)) || p >= uint64(len(table)) || o >= uint64(len(table)) {
			return nil, fmt.Errorf("rdf: decoding snapshot: triple %d: term index out of range (%d terms)", i, len(table))
		}
		used[s/64] |= 1 << (s % 64)
		used[p/64] |= 1 << (p % 64)
		used[o/64] |= 1 << (o % 64)
		// Positional validation, once per triple here instead of per Add.
		if k := table[s].Kind; k != IRIKind && k != BlankKind {
			return nil, fmt.Errorf("rdf: decoding snapshot: triple %d: subject is %s", i, k)
		}
		if k := table[p].Kind; k != IRIKind {
			return nil, fmt.Errorf("rdf: decoding snapshot: triple %d: predicate is %s", i, k)
		}
		keys = append(keys, k)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("rdf: decoding snapshot: %d trailing bytes", len(r.b)-r.pos)
	}
	g := buildGraphBulk(table, keys)
	if !r.loose && allSet(used, len(table)) {
		g.enc.Store(&snapshotMemo{ver: g.ver, b: raw})
	}
	return g, nil
}

// allSet reports whether the first n bits of bits are all set; bits has
// room for n bits and fewer than 64 more.
func allSet(bits []uint64, n int) bool {
	for i, w := range bits {
		want := ^uint64(0)
		if rest := n - 64*i; rest < 64 {
			want = 1<<rest - 1
		}
		if w != want {
			return false
		}
	}
	return true
}

// readTripleIDs reads and range-checks one triple's term indexes.
func readTripleIDs(r *binReader, nTerms int) (s, p, o uint64, err error) {
	if s, err = r.uvarint("subject index"); err != nil {
		return
	}
	if p, err = r.uvarint("predicate index"); err != nil {
		return
	}
	if o, err = r.uvarint("object index"); err != nil {
		return
	}
	if s >= uint64(nTerms) || p >= uint64(nTerms) || o >= uint64(nTerms) {
		err = fmt.Errorf("rdf: decoding snapshot: term index out of range (%d terms)", nTerms)
	}
	return
}

// decodeUnpacked is the fallback for term tables too large to pack:
// plain per-triple Add.
func decodeUnpacked(r *binReader, table []Term, nTriples uint64) (*Graph, error) {
	g := NewGraph()
	for i := uint64(0); i < nTriples; i++ {
		s, p, o, err := readTripleIDs(r, len(table))
		if err != nil {
			return nil, err
		}
		t := Triple{S: table[s], P: table[p], O: table[o]}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("rdf: decoding snapshot: triple %d: %w", i, err)
		}
		g.Add(t)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("rdf: decoding snapshot: %d trailing bytes", len(r.b)-r.pos)
	}
	return g, nil
}

// buildGraphBulk constructs a graph from packed (s,p,o) keys without
// going through Add: the SPO index is filled from the keys with every
// bucket allocated once at its exact final size. The keys arrive
// sorted, since the decoder rejects a decreasing one.
func buildGraphBulk(table []Term, spo []uint64) *Graph {
	g := NewGraph()
	n := fillIndexBulk(&g.spo, g.mut, table, spo)
	g.n = n
	g.ver = uint64(n)
	return g
}

// fillIndexBulk fills the SPO index from sorted packed keys, returning
// the number of distinct keys. Duplicates are adjacent after
// sorting and collapse in the leaf sets. Bucket structs come out of two
// slab allocations — one per level — instead of one allocation each.
func fillIndexBulk(ix *cowIndex, tok *mutToken, table []Term, keys []uint64) int {
	// Count distinct first keys (for shard sizing and the bucket2 slab)
	// and distinct (first, second) pairs (for the bucket3 slab).
	var counts [shardCount]int
	distinctA, distinctAB := 0, 0
	for i := 0; i < len(keys); {
		a := keys[i] >> (2 * termBits)
		j := i
		for j < len(keys) && keys[j]>>(2*termBits) == a {
			j++
		}
		counts[shardOf(table[a])]++
		distinctA++
		for k := i; k < j; {
			b := keys[k] >> termBits & termMask
			for k < j && keys[k]>>termBits&termMask == b {
				k++
			}
			distinctAB++
		}
		i = j
	}
	for s := range ix.shards {
		if counts[s] > 0 {
			ix.shards[s] = cowShard{owner: tok, m: make(map[Term]*bucket2, counts[s])}
		}
	}
	b2slab := make([]bucket2, distinctA)
	b3slab := make([]bucket3, distinctAB)
	// Arenas back the inline slices of small buckets: len(keys) bounds
	// the total leaf entries, distinctAB the second-level entries.
	arena := make([]Term, len(keys))
	entryArena := make([]b2entry, distinctAB)

	n := 0
	for i := 0; i < len(keys); {
		aID := keys[i] >> (2 * termBits)
		j := i
		for j < len(keys) && keys[j]>>(2*termBits) == aID {
			j++
		}
		run := keys[i:j]
		distinctB := 0
		for k := 0; k < len(run); {
			b := run[k] >> termBits & termMask
			for k < len(run) && run[k]>>termBits&termMask == b {
				k++
			}
			distinctB++
		}
		b2 := &b2slab[0]
		b2slab = b2slab[1:]
		*b2 = bucket2{owner: tok}
		if distinctB <= b2FewMax {
			b2.few = entryArena[:0:distinctB]
			entryArena = entryArena[distinctB:]
		} else {
			b2.flat = make(map[Term]*bucket3, distinctB)
		}
		for k := 0; k < len(run); {
			bID := run[k] >> termBits & termMask
			l := k
			for l < len(run) && run[l]>>termBits&termMask == bID {
				l++
			}
			b3 := &b3slab[0]
			b3slab = b3slab[1:]
			*b3 = bucket3{owner: tok}
			// Distinct third keys; duplicates are adjacent.
			distinctC := 1
			for m := k + 1; m < l; m++ {
				if run[m] != run[m-1] {
					distinctC++
				}
			}
			if distinctC <= fewMax {
				few := arena[:0:distinctC]
				arena = arena[distinctC:]
				prev := ^uint64(0)
				for m := k; m < l; m++ {
					if run[m] == prev {
						continue
					}
					prev = run[m]
					few = append(few, table[run[m]&termMask])
				}
				b3.few = few
			} else {
				set := make(map[Term]struct{}, distinctC)
				prev := ^uint64(0)
				for m := k; m < l; m++ {
					if run[m] == prev {
						continue
					}
					prev = run[m]
					set[table[run[m]&termMask]] = struct{}{}
				}
				b3.set = set
			}
			n += distinctC
			if b2.flat != nil {
				b2.flat[table[bID]] = b3
			} else {
				b2.few = append(b2.few, b2entry{k: table[bID], v: b3})
			}
			k = l
		}
		aTerm := table[aID]
		ix.shards[shardOf(aTerm)].m[aTerm] = b2
		i = j
	}
	return n
}
