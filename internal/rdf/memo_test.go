package rdf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rawSnapshot writes a snapshot encoding by hand: the terms in the order
// given, then the triple count and one delta per packed key. long
// writes the triple count as a two-byte varint, which decodes to the
// same count but is not the shortest form.
func rawSnapshot(terms []Term, keys []uint64, long bool) []byte {
	b := append([]byte(nil), binaryMagic...)
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, t := range terms {
		b = append(b, byte(t.Kind))
		b = binary.AppendUvarint(b, uint64(len(t.Value)))
		b = append(b, t.Value...)
		if t.Kind == LiteralKind {
			b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
			b = append(b, t.Datatype...)
			b = binary.AppendUvarint(b, uint64(len(t.Lang)))
			b = append(b, t.Lang...)
		}
	}
	if long {
		b = append(b, byte(len(keys))|0x80, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(keys)))
	}
	prev := uint64(0)
	for _, k := range keys {
		b = binary.AppendUvarint(b, k-prev)
		prev = k
	}
	return b
}

// key packs three term-table indexes.
func key(s, p, o uint64) uint64 { return s<<(2*termBits) | p<<termBits | o }

// TestDecodeKeepsOnlyCanonicalInput: a graph decoded from the bytes
// AppendSnapshot writes keeps them and encodes to them without
// encoding; one decoded from any other encoding of the same triples
// keeps nothing and encodes to the canonical bytes.
func TestDecodeKeepsOnlyCanonicalInput(t *testing.T) {
	a, p := NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p")
	x, y, z := NewLiteral("x"), NewLiteral("y"), NewLiteral("z")
	g := NewGraph()
	g.Add(T(a, p, x))
	g.Add(T(a, p, y))
	canonical := AppendSnapshot(nil, g)
	if got := rawSnapshot([]Term{a, p, x, y}, []uint64{key(0, 1, 2), key(0, 1, 3)}, false); !bytes.Equal(got, canonical) {
		t.Fatalf("rawSnapshot does not write what AppendSnapshot writes:\n%q\n%q", got, canonical)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(canonical))
	if err != nil {
		t.Fatal(err)
	}
	m := dec.enc.Load()
	if m == nil || !bytes.Equal(m.b, canonical) {
		t.Fatal("a graph decoded from its canonical encoding keeps no memo of it")
	}
	if out := AppendSnapshot(nil, dec); !bytes.Equal(out, canonical) {
		t.Fatal("the memo is not what the graph was decoded from")
	}

	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"terms out of order", rawSnapshot([]Term{p, a, x, y}, []uint64{key(1, 0, 2), key(1, 0, 3)}, false)},
		{"unused term", rawSnapshot([]Term{a, p, x, y, z}, []uint64{key(0, 1, 2), key(0, 1, 3)}, false)},
		{"repeated triple", rawSnapshot([]Term{a, p, x, y}, []uint64{key(0, 1, 2), key(0, 1, 2), key(0, 1, 3)}, false)},
		{"overlong varint", rawSnapshot([]Term{a, p, x, y}, []uint64{key(0, 1, 2), key(0, 1, 3)}, true)},
	} {
		dec, err := DecodeSnapshot(bytes.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !graphsEqual(dec, g) {
			t.Fatalf("%s: decoded %v, want %v", tc.name, dec.Triples(), g.Triples())
		}
		if dec.enc.Load() != nil {
			t.Errorf("%s: a non-canonical input was kept as the memo", tc.name)
		}
		if out := AppendSnapshot(nil, dec); !bytes.Equal(out, canonical) {
			t.Errorf("%s: encoded to %q, want the canonical %q", tc.name, out, canonical)
		}
	}
}

// TestSnapshotMemoMoves: Snapshot passes a decoded graph's memo to the
// frozen view, Clone copies none, and encoding a live graph stores none.
func TestSnapshotMemoMoves(t *testing.T) {
	g := genGraph(rand.New(rand.NewSource(11)), 200)
	in := AppendSnapshot(nil, g)
	if g.enc.Load() != nil {
		t.Fatal("encoding a live graph stored a memo")
	}
	dec, err := DecodeSnapshot(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m := dec.enc.Load()
	if m == nil {
		t.Fatal("decoded graph keeps no memo")
	}
	if snap := dec.Snapshot(); snap.enc.Load() != m {
		t.Fatal("the snapshot of an unchanged decoded graph does not share its memo")
	}
	c := dec.Clone()
	if c.enc.Load() != nil {
		t.Fatal("Clone copied the memo")
	}
	if out := AppendSnapshot(nil, c); !bytes.Equal(out, in) {
		t.Fatal("a clone encodes differently from the graph it copies")
	}
}

// TestSnapshotMemoStaleAfterMutation: a decoded graph that is then
// mutated encodes again, to bytes that differ from its input and decode
// to the mutated graph, and its next snapshot drops the stale memo.
func TestSnapshotMemoStaleAfterMutation(t *testing.T) {
	g := genGraph(rand.New(rand.NewSource(12)), 200)
	in := AppendSnapshot(nil, g)
	dec, err := DecodeSnapshot(bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	added := T(NewIRI("http://ex.org/added"), NewIRI("http://ex.org/p"), NewLiteral("v"))
	if !dec.Add(added) {
		t.Fatal("add failed")
	}
	g.Add(added)
	out := AppendSnapshot(nil, dec)
	if bytes.Equal(out, in) {
		t.Fatal("a mutated graph encoded to its stale memo")
	}
	back, err := DecodeSnapshot(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(back, g) {
		t.Fatal("the encoding of the mutated graph does not decode to it")
	}
	snap := dec.Snapshot()
	if dec.enc.Load() != nil || snap.enc.Load() != nil {
		t.Fatal("the snapshot after a mutation kept the stale memo")
	}
	if got := AppendSnapshot(nil, snap); !bytes.Equal(got, out) {
		t.Fatal("the snapshot encodes differently from the live graph")
	}
}

// TestFrozenReencodeAllocatesNothing: a frozen snapshot keeps what it was
// first encoded to, so encoding it again into a large enough dst
// allocates nothing.
func TestFrozenReencodeAllocatesNothing(t *testing.T) {
	g := genGraph(rand.New(rand.NewSource(13)), 300)
	snap := g.Snapshot()
	first := AppendSnapshot(nil, snap)
	if snap.enc.Load() == nil {
		t.Fatal("encoding a frozen snapshot stored no memo")
	}
	if g.enc.Load() != nil {
		t.Fatal("encoding a frozen snapshot stored a memo on the live graph")
	}
	dst := make([]byte, 0, len(first))
	allocs := testing.AllocsPerRun(20, func() {
		dst = AppendSnapshot(dst[:0], snap)
	})
	if allocs != 0 {
		t.Fatalf("re-encoding a frozen snapshot allocated %.0f times, want 0", allocs)
	}
	if !bytes.Equal(dst, first) {
		t.Fatal("the second encoding differs from the first")
	}
}

// TestAppendSnapshotSizesExactly: a fresh encode grows dst once, by the
// length of the encoding and no more.
func TestAppendSnapshotSizesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 40, 3000} {
		g := genGraph(rng, n)
		out := AppendSnapshot(nil, g)
		if want := cap(slices.Grow([]byte(nil), len(out))); cap(out) != want {
			t.Errorf("%d triples: encoding of %d bytes has capacity %d, want %d (one exact growth)", n, len(out), cap(out), want)
		}
		dst := make([]byte, 3, 3+len(out))
		if got := AppendSnapshot(dst, g); &got[0] != &dst[0] {
			t.Errorf("%d triples: encoding reserved more than the %d bytes it wrote", n, len(out))
		}
	}
}

// TestConcurrentFrozenEncode: several goroutines encode one frozen
// snapshot, storing and reading its memo, while the writer mutates the
// live graph and snapshots and encodes it again. Run under -race.
func TestConcurrentFrozenEncode(t *testing.T) {
	g := seededGraph(400)
	for round := 0; round < 4; round++ {
		snap := g.Snapshot()
		want := AppendSnapshot(nil, snap.Clone())
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if got := AppendSnapshot(nil, snap); !bytes.Equal(got, want) {
						t.Errorf("round %d: a concurrent encoding differs from the snapshot's", round)
						return
					}
				}
			}()
		}
		for i := 0; i < 60; i++ {
			g.Add(tripleN(1000*(round+1)+i, i%3, i))
			if i%20 == 0 {
				AppendSnapshot(nil, g.Snapshot())
			}
		}
		wg.Wait()
	}
}
