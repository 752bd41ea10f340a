package rdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// graphsEqual reports whether two graphs hold the same triple set.
func graphsEqual(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Match(Term{}, Term{}, Term{}, func(t Triple) bool {
		if !b.Has(t) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	g := NewGraph()
	s := NewIRI("http://ex.org/s")
	g.Add(T(s, NewIRI("http://ex.org/p"), NewLiteral("plain")))
	g.Add(T(s, NewIRI("http://ex.org/p"), NewLangLiteral("bonjour", "fr")))
	g.Add(T(s, NewIRI("http://ex.org/q"), NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")))
	g.Add(T(NewBlank("b1"), NewIRI("http://ex.org/p"), NewLiteral("from a blank node")))
	g.Add(T(s, NewIRI("http://ex.org/r"), NewLiteral("esc \"quotes\"\n\ttabs \\ and 日本語")))
	g.Add(T(s, NewIRI("http://ex.org/r"), NewBlank("b2")))

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !graphsEqual(g, got) {
		t.Fatalf("round trip changed the graph:\nwant %v\ngot  %v", g.Triples(), got.Triples())
	}
}

func TestBinarySnapshotEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, NewGraph()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("decoded %d triples from an empty graph", got.Len())
	}
}

func TestBinarySnapshotDeterministic(t *testing.T) {
	// Insert the same triples in two different orders; the encodings must
	// be byte-identical (graphs are sets, the codec sorts).
	mk := func(perm []int) *Graph {
		ts := []Triple{
			T(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), NewLiteral("1")),
			T(NewIRI("http://ex.org/b"), NewIRI("http://ex.org/p"), NewLiteral("2")),
			T(NewIRI("http://ex.org/c"), NewIRI("http://ex.org/q"), NewLangLiteral("x", "en")),
		}
		g := NewGraph()
		for _, i := range perm {
			g.Add(ts[i])
		}
		return g
	}
	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, mk([]int{0, 1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, mk([]int{2, 0, 1})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding depends on insertion order")
	}
}

// TestBinarySnapshotMatchesNTriples grounds the binary codec against the
// text path: decoding the binary form and parsing the N-Triples form of
// the same random graph must agree triple for triple.
func TestBinarySnapshotMatchesNTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		g := genGraph(rng, 1+rng.Intn(60))

		var bin bytes.Buffer
		if err := EncodeSnapshot(&bin, g); err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		fromBin, err := DecodeSnapshot(&bin)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}

		var nt bytes.Buffer
		if err := WriteNTriples(&nt, g); err != nil {
			t.Fatalf("round %d: write nt: %v", round, err)
		}
		fromNT, err := ReadNTriples(&nt)
		if err != nil {
			t.Fatalf("round %d: read nt: %v", round, err)
		}

		if !graphsEqual(fromBin, fromNT) {
			t.Fatalf("round %d: binary and text round trips disagree", round)
		}
		if !graphsEqual(fromBin, g) {
			t.Fatalf("round %d: binary round trip changed the graph", round)
		}
	}
}

// snapshotCorruptions is a valid ten-triple snapshot encoding and the
// damaged copies of it that TestDecodeSnapshotRejectsCorruptInput checks
// and FuzzDecodeSnapshot seeds from.
type snapshotCorruptions struct {
	valid     []byte
	badMagic  []byte   // first byte inverted
	truncated [][]byte // every 7th proper prefix
	flipped   [][]byte // bit 6 flipped, once per byte past the magic
}

func corruptSnapshots(tb testing.TB) snapshotCorruptions {
	g := NewGraph()
	s := NewIRI("http://ex.org/s")
	for i := 0; i < 10; i++ {
		g.Add(T(s, NewIRI("http://ex.org/p"), NewLiteral(strings.Repeat("v", i+1))))
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g); err != nil {
		tb.Fatal(err)
	}
	enc := buf.Bytes()
	c := snapshotCorruptions{valid: enc, badMagic: append([]byte(nil), enc...)}
	c.badMagic[0] ^= 0xff
	for cut := 1; cut < len(enc); cut += 7 {
		c.truncated = append(c.truncated, enc[:cut])
	}
	for i := len(binaryMagic); i < len(enc); i++ {
		b := append([]byte(nil), enc...)
		b[i] ^= 0x40
		c.flipped = append(c.flipped, b)
	}
	return c
}

func TestDecodeSnapshotRejectsCorruptInput(t *testing.T) {
	c := corruptSnapshots(t)

	t.Run("bad magic", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(c.badMagic)); err == nil {
			t.Fatal("decoded despite corrupt magic")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, b := range c.truncated {
			if _, err := DecodeSnapshot(bytes.NewReader(b)); err == nil {
				t.Fatalf("decoded a %d/%d-byte prefix", len(b), len(c.valid))
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		// Any single-bit corruption must either fail or still yield a
		// graph of valid triples — never panic or hang.
		for i, b := range c.flipped {
			g, err := DecodeSnapshot(bytes.NewReader(b))
			if err == nil && g.Len() > 1000 {
				t.Fatalf("flip at %d produced an implausible graph", len(binaryMagic)+i)
			}
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(nil)); err == nil {
			t.Fatal("decoded empty input")
		}
	})
}

// randomTerm builds a random term exercising every kind and the escaping
// edge cases (quotes, control characters, multi-byte runes, lang tags,
// datatypes).
func genTerm(rng *rand.Rand, allowLiteral bool) Term {
	alphabets := []string{
		"abcdefXYZ0189",
		"\"\\\n\r\t ._-",
		"héllo日本語🙂",
	}
	randString := func(maxLen int) string {
		n := 1 + rng.Intn(maxLen)
		var b strings.Builder
		for i := 0; i < n; i++ {
			al := alphabets[rng.Intn(len(alphabets))]
			rs := []rune(al)
			b.WriteRune(rs[rng.Intn(len(rs))])
		}
		return b.String()
	}
	kinds := 2
	if allowLiteral {
		kinds = 3
	}
	switch rng.Intn(kinds) {
	case 0:
		return NewIRI("http://ex.org/" + randIdent(rng))
	case 1:
		return NewBlank(randIdent(rng))
	default:
		switch rng.Intn(3) {
		case 0:
			return NewLiteral(randString(12))
		case 1:
			lang := []string{"en", "fr", "de-AT", "zh-Hans"}[rng.Intn(4)]
			return NewLangLiteral(randString(12), lang)
		default:
			dt := []string{
				"http://www.w3.org/2001/XMLSchema#integer",
				"http://www.w3.org/2001/XMLSchema#date",
				"http://ex.org/dt#custom",
			}[rng.Intn(3)]
			return NewTypedLiteral(randString(12), dt)
		}
	}
}

// randIdent is a safe identifier for IRI tails and blank labels.
func randIdent(rng *rand.Rand) string {
	const al = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := 1 + rng.Intn(10)
	b := make([]byte, n)
	for i := range b {
		b[i] = al[rng.Intn(len(al))]
	}
	return string(b)
}

// randomGraph builds a graph of n random valid triples.
func genGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := genTerm(rng, false)
		p := NewIRI("http://ex.org/p/" + randIdent(rng))
		o := genTerm(rng, true)
		g.Add(T(s, p, o))
	}
	return g
}

// TestDecodedGraphSecondaryIndexes checks that a decoded graph answers
// the patterns that leave the subject open (predicate-bound,
// object-bound and predicate+object-bound) exactly as the graph it was
// encoded from.
func TestDecodedGraphSecondaryIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	built := genGraph(rng, 120)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, built); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	termsEq := func(a, b []Term) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !termsEq(predicates(built), predicates(decoded)) {
		t.Error("Predicates disagree")
	}
	for _, p := range predicates(built) {
		built.Match(Term{}, p, Term{}, func(tr Triple) bool {
			if !termsEq(built.Subjects(tr.P, tr.O), decoded.Subjects(tr.P, tr.O)) {
				t.Errorf("Subjects(%v, %v) disagree", tr.P, tr.O)
			}
			if !termsEq(predsOf(built.Find(tr.S, Term{}, tr.O)), predsOf(decoded.Find(tr.S, Term{}, tr.O))) {
				t.Errorf("Find(s, ?, o) disagrees for %v", tr)
			}
			got := decoded.Find(Term{}, Term{}, tr.O)
			want := built.Find(Term{}, Term{}, tr.O)
			if len(got) != len(want) {
				t.Errorf("Find(?, ?, o) disagrees for %v", tr.O)
			}
			return true
		})
	}
}

// predsOf projects triples onto predicates for compact comparison.
func predsOf(ts []Triple) []Term {
	out := make([]Term, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.P)
	}
	return out
}

// TestDecodedGraphMutateAfterDecode checks that a decoded graph takes
// removes and adds, and that the reads with the subject open see them.
func TestDecodedGraphMutateAfterDecode(t *testing.T) {
	g := NewGraph()
	s, p := NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p")
	g.Add(T(s, p, NewLiteral("old")))
	g.Add(T(s, p, NewLiteral("keep")))
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Remove(T(s, p, NewLiteral("old"))) {
		t.Fatal("remove failed")
	}
	dec.Add(T(s, p, NewLiteral("new")))
	if subj := dec.Subjects(p, NewLiteral("old")); len(subj) != 0 {
		t.Errorf("Subjects still lists removed triple: %v", subj)
	}
	if subj := dec.Subjects(p, NewLiteral("new")); len(subj) != 1 {
		t.Errorf("Subjects misses added triple: %v", subj)
	}
	if got := dec.Find(Term{}, Term{}, NewLiteral("keep")); len(got) != 1 {
		t.Errorf("object-bound lookup after mutation: %v", got)
	}
}
