package rdf

import (
	"bytes"
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
