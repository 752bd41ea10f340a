package rdf

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the binary snapshot
// decoder. It must never panic, and a graph it accepts must re-encode
// and decode to the same triples. The seeds are a valid encoding, empty
// input and the corruptions TestDecodeSnapshotRejectsCorruptInput makes.
func FuzzDecodeSnapshot(f *testing.F) {
	c := corruptSnapshots(f)
	seeds := append([][]byte{c.valid, {}, c.badMagic}, c.truncated...)
	for _, b := range append(seeds, c.flipped...) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, g); err != nil {
			t.Fatalf("re-encoding a decoded graph: %v", err)
		}
		g2, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded graph: %v", err)
		}
		if want, got := g.Triples(), g2.Triples(); !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip changed the triples:\nfirst  %v\nsecond %v", want, got)
		}
	})
}

// FuzzNTriples feeds arbitrary bytes to the N-Triples reader. It must
// never panic, and a graph it accepts must survive WriteNTriples and
// ReadNTriples unchanged. The seeds are a statement holding a byte that
// is not UTF-8, and the round-trip fixtures of roundtrip_test.go: every
// edgeObjects graph and a few random graphs of genGraph.
func FuzzNTriples(f *testing.F) {
	f.Add([]byte("<0><0>\"\x80\"."))
	graphs := []*Graph{}
	for _, tc := range edgeObjects {
		graphs = append(graphs, edgeGraph(tc.o))
	}
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 4; i++ {
		graphs = append(graphs, genGraph(rng, 1+rng.Intn(12)))
	}
	for _, g := range graphs {
		var b bytes.Buffer
		if err := WriteNTriples(&b, g); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadNTriples(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("writing a read graph: %v", err)
		}
		g2, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading a written graph: %v\n%s", err, buf.Bytes())
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("round trip changed the graph:\nwrote %q\nfirst  %v\nsecond %v", buf.Bytes(), g.Triples(), g2.Triples())
		}
	})
}
