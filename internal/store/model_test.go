package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rdf"
)

// fullStats sets every LearnStats field to its own non-zero value, so
// a field the model section forgets fails the round trip.
func fullStats() core.LearnStats {
	var st core.LearnStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000*(i+1) + i))
	}
	return st
}

// testModels are the model section's fixtures: rules whose class is an
// IRI, a blank node and a language-tagged literal, a typed-literal
// property, a segment holding a tab, a newline and bytes that are not
// UTF-8, a generalized rule, a count past one varint byte, and an empty
// rule set.
func testModels() []*core.Model {
	pn := rdf.NewIRI("http://ex.org/pn")
	rules := []core.Rule{
		{Property: pn, Segment: "CRCW", Class: rdf.NewIRI("http://ex.org/onto#Resistor"),
			PremiseCount: 300, JointCount: 290, ClassCount: 1200, TSSize: 7186},
		{Property: pn, Segment: "a\tb\nc\xff\xfe", Class: rdf.NewBlank("b0"),
			PremiseCount: 4, JointCount: 3, ClassCount: 9, TSSize: 7186},
		{Property: rdf.NewTypedLiteral("odd", "http://ex.org/dt"), Segment: "", Class: rdf.NewLangLiteral("Widerstand", "de"),
			PremiseCount: 1, JointCount: 1, ClassCount: 1, TSSize: 1, Generalized: true},
	}
	return []*core.Model{
		{Rules: core.RuleSet{Rules: rules}, Stats: fullStats()},
		{Rules: core.RuleSet{Rules: rules[2:]}},
		{Stats: fullStats()},
		{},
	}
}

// sameModel compares what the model section keeps: the rules in order
// and the learn stats.
func sameModel(a, b *core.Model) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Rules.Rules, b.Rules.Rules) && a.Stats == b.Stats
}

// TestModelSectionRoundTrip: every fixture decodes to its rules and
// stats, with no config and no training index, and re-encodes to the
// same bytes.
func TestModelSectionRoundTrip(t *testing.T) {
	for i, m := range testModels() {
		enc := appendModel(nil, m)
		got, err := decodeModel(enc)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if !sameModel(got, m) {
			t.Errorf("fixture %d: round trip changed the model:\ngot  %+v\nwant %+v", i, got, m)
		}
		if got.TrainingSize() != 0 || !reflect.DeepEqual(got.Config, core.LearnerConfig{}) {
			t.Errorf("fixture %d: a decoded model has a training index or a config", i)
		}
		if again := appendModel(nil, got); !bytes.Equal(again, enc) {
			t.Errorf("fixture %d: re-encoding changed the bytes:\nfirst  %x\nsecond %x", i, enc, again)
		}
	}
}

// TestModelSectionRejectsCorruption: every strict prefix of an encoding
// fails, and so do a bad term kind, a bad generalized flag, a varint
// longer than its shortest form, a rule count past the rules and
// trailing bytes.
func TestModelSectionRejectsCorruption(t *testing.T) {
	enc := appendModel(nil, testModels()[0])
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeModel(enc[:cut]); err == nil {
			t.Fatalf("decoded a %d-byte prefix of a %d-byte section", cut, len(enc))
		}
	}
	one := &core.Model{Rules: core.RuleSet{Rules: []core.Rule{{
		Property: rdf.NewIRI("p"), Segment: "s", Class: rdf.NewIRI("c"), Generalized: true,
	}}}}
	valid := appendModel(nil, one)
	stats := len(statsWire(&core.LearnStats{}))
	kind := stats + 1 // the rule's first term kind follows the stats and the rule count
	for name, bad := range map[string][]byte{
		"term kind 0":       patch(valid, kind, 0),
		"term kind 4":       patch(valid, kind, 4),
		"generalized 2":     patch(valid, len(valid)-1, 2),
		"class kind 0":      patch(valid, kind+1, 0),
		"overlong varint":   append([]byte{0x80, 0x00}, valid[1:]...),
		"trailing byte":     append(slices.Clone(valid), 0),
		"rule count over 1": patch(valid, stats, 2),
	} {
		if _, err := decodeModel(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeModel(valid); err != nil {
		t.Fatalf("the unpatched section fails: %v", err)
	}
}

// patch returns a copy of b with b[i] = v.
func patch(b []byte, i int, v byte) []byte {
	out := slices.Clone(b)
	out[i] = v
	return out
}

// hugeRuleCountSection is a model section of zero stats whose rule
// count claims a billion rules, followed by nothing.
func hugeRuleCountSection() []byte {
	b := make([]byte, len(statsWire(&core.LearnStats{})))
	return binary.AppendUvarint(b, 1_000_000_000)
}

// modelAllocBound bounds what decodeModel may allocate for n bytes: a
// rule takes at least minRuleBytes of input and about 170 bytes of
// memory, and a string no more memory than it takes input, rounded up
// to a size class.
func modelAllocBound(n int) uint64 { return uint64(32*n + 256<<10) }

// TestModelDecodeBoundsRuleHint: the rule count read from disk sizes
// the rule slice only up to what the remaining bytes can hold, so a
// short section cannot make the decoder allocate gigabytes.
func TestModelDecodeBoundsRuleHint(t *testing.T) {
	body := hugeRuleCountSection()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeModel(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a section whose rules are missing")
	}
	if n, bound := after.TotalAlloc-before.TotalAlloc, modelAllocBound(len(body)); n > bound {
		t.Errorf("decoding %d bytes allocated %d bytes, want <= %d", len(body), n, bound)
	}
}

// FuzzModelSection feeds arbitrary bytes to the model section decoder.
// It must never panic, an accepted section must re-encode to the same
// bytes, and no count it reads may make it allocate beyond a fixed
// multiple of the input. The seeds are the fixtures' encodings, every
// prefix of them, and a huge rule count.
func FuzzModelSection(f *testing.F) {
	for _, m := range testModels() {
		enc := appendModel(nil, m)
		for cut := 0; cut <= len(enc); cut++ {
			f.Add(enc[:cut])
		}
	}
	f.Add(hugeRuleCountSection())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeModel(data)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, modelAllocBound(len(data)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		if again := appendModel(nil, m); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding an accepted section changed it:\nin  %x\nout %x", data, again)
		}
	})
}

// testLinks are the links section's fixtures: no links, one with empty
// endpoints, and endpoints of both kinds, with bytes that are not UTF-8
// and lengths past one varint byte.
func testLinks() [][]core.Link {
	long := strings.Repeat("http://ex.org/item/", 8)
	return [][]core.Link{
		nil,
		{{External: rdf.NewIRI(""), Local: rdf.NewBlank("")}},
		{
			{External: rdf.NewIRI("http://ex.org/e/1"), Local: rdf.NewIRI("http://ex.org/l/1")},
			{External: rdf.NewBlank("b0"), Local: rdf.NewIRI("\xff\xfe")},
			{External: rdf.NewIRI(long), Local: rdf.NewIRI(long + "x")},
		},
	}
}

// badLinkSections are one-link sections with an endpoint that is not an
// IRI or a blank node: a kind-0 external endpoint, a literal one, and a
// kind-255 local endpoint.
func badLinkSections() [][]byte {
	return [][]byte{
		{1, 0, 0, 1, 0},
		{1, 2, 1, 'x', 1, 0},
		{1, 3, 2, 'b', '0', 255, 2, 0xff, 0xfe},
	}
}

// encodeLinks is the links section of links, which must encode.
func encodeLinks(t testing.TB, links []core.Link) []byte {
	t.Helper()
	b, err := appendLinks(nil, links)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLinksSectionEndpointKinds: every fixture round trips, and a link
// endpoint that is not an IRI or a blank node is refused both ways: the
// encoder will not write a zero, literal or unknown kind, and the
// decoder will not read one.
func TestLinksSectionEndpointKinds(t *testing.T) {
	for i, links := range testLinks() {
		got, err := decodeLinks(encodeLinks(t, links))
		if err != nil || !slices.Equal(got, links) {
			t.Errorf("fixture %d: round trip gave %v, %v", i, got, err)
		}
	}
	for i, sec := range badLinkSections() {
		if links, err := decodeLinks(sec); err == nil {
			t.Errorf("bad section %d: decoded %v", i, links)
		}
	}
	iri := rdf.NewIRI("http://ex.org/e/1")
	for _, bad := range []rdf.Term{{}, rdf.NewLiteral("x"), {Kind: 255, Value: "x"}} {
		for _, l := range []core.Link{{External: bad, Local: iri}, {External: iri, Local: bad}} {
			if _, err := appendLinks(nil, []core.Link{l}); err == nil {
				t.Errorf("encoded the link %v", l)
			}
		}
	}
}

// hugeLinkCountSection is a 6-byte links section: a count that claims
// 2^40 links, followed by nothing.
func hugeLinkCountSection() []byte {
	return binary.AppendUvarint(nil, 1<<40)
}

// linksAllocBound bounds what decodeLinks may allocate for n bytes: a
// link takes at least minLinkBytes of input and 112 bytes of memory,
// and a string no more memory than it takes input, rounded up to a size
// class.
func linksAllocBound(n int) uint64 { return uint64(32*n + 256<<10) }

// FuzzLinksSection feeds arbitrary bytes to the links section decoder.
// It must never panic, an accepted section must re-encode to the same
// bytes, and the link count it reads may not make it allocate beyond a
// fixed multiple of the input. The seeds are the fixtures' encodings,
// every prefix of them, the sections with a bad endpoint kind and a huge
// link count.
func FuzzLinksSection(f *testing.F) {
	for _, links := range testLinks() {
		enc := encodeLinks(f, links)
		for cut := 0; cut <= len(enc); cut++ {
			f.Add(enc[:cut])
		}
	}
	for _, sec := range badLinkSections() {
		f.Add(sec)
	}
	f.Add(hugeLinkCountSection())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		links, err := decodeLinks(data)
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, linksAllocBound(len(data)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		if again := encodeLinks(t, links); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding an accepted section changed it:\nin  %x\nout %x", data, again)
		}
	})
}
