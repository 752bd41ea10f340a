package keys

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

var (
	clsA  = rdf.NewIRI("http://onto/A")
	serNo = rdf.NewIRI("http://ex/serial")
	color = rdf.NewIRI("http://ex/color")
	size  = rdf.NewIRI("http://ex/size")
)

// keyGraph: serial is a perfect key; color is not; (color,size) is a key.
func keyGraph(t testing.TB) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	colors := []string{"red", "blue"}
	sizes := []string{"S", "M", "L", "XL", "XXL"}
	for i := 0; i < 10; i++ {
		inst := rdf.NewIRI(fmt.Sprintf("http://cat/i%d", i))
		g.Add(rdf.T(inst, rdf.TypeTerm, clsA))
		g.Add(rdf.T(inst, serNo, rdf.NewLiteral(fmt.Sprintf("SN%04d", i))))
		g.Add(rdf.T(inst, color, rdf.NewLiteral(colors[i%2])))
		g.Add(rdf.T(inst, size, rdf.NewLiteral(sizes[i/2])))
	}
	return g
}

func findKey(keys []Key, props ...rdf.Term) *Key {
	for i, k := range keys {
		if len(k.Properties) != len(props) {
			continue
		}
		match := true
		for j := range props {
			if k.Properties[j] != props[j] {
				match = false
				break
			}
		}
		if match {
			return &keys[i]
		}
	}
	return nil
}

func TestDiscoverSingleKey(t *testing.T) {
	g := keyGraph(t)
	keys := Discover(g, []rdf.Term{clsA}, Config{})
	serial := findKey(keys, serNo)
	if serial == nil {
		t.Fatalf("serial key not discovered: %v", keys)
	}
	if serial.Distinctness != 1 || serial.Coverage != 1 {
		t.Errorf("serial key stats = %+v", *serial)
	}
	if k := findKey(keys, color); k != nil {
		t.Errorf("color wrongly discovered as key: %+v", *k)
	}
}

func TestDiscoverPairKeyWithPruning(t *testing.T) {
	g := keyGraph(t)
	keys := Discover(g, []rdf.Term{clsA}, Config{})
	// (color,size) identifies each instance: 2 colors x 5 sizes = 10.
	pair := findKey(keys, color, size)
	if pair == nil {
		t.Fatalf("(color,size) key not discovered: %v", keys)
	}
	if pair.Distinctness != 1 {
		t.Errorf("pair distinctness = %v", pair.Distinctness)
	}
	// Pruning: no pair involving the already-keyed serial property.
	for _, k := range keys {
		if len(k.Properties) == 2 {
			for _, p := range k.Properties {
				if p == serNo {
					t.Errorf("superset of serial key reported: %v", k)
				}
			}
		}
	}
}

func TestDiscoverCoverageFilter(t *testing.T) {
	g := keyGraph(t)
	// A property present on only 3 of 10 instances.
	rare := rdf.NewIRI("http://ex/rare")
	for i := 0; i < 3; i++ {
		g.Add(rdf.T(rdf.NewIRI(fmt.Sprintf("http://cat/i%d", i)), rare, rdf.NewLiteral(fmt.Sprintf("r%d", i))))
	}
	keys := Discover(g, []rdf.Term{clsA}, Config{MinCoverage: 0.8})
	if k := findKey(keys, rare); k != nil {
		t.Errorf("low-coverage property reported as key: %+v", *k)
	}
	// With a lax coverage floor it appears.
	keys = Discover(g, []rdf.Term{clsA}, Config{MinCoverage: 0.1})
	if k := findKey(keys, rare); k == nil {
		t.Error("rare key missing under lax coverage")
	}
}

func TestDiscoverAlmostKey(t *testing.T) {
	g := keyGraph(t)
	// Duplicate one serial: distinctness 9/10.
	g.Add(rdf.T(rdf.NewIRI("http://cat/dup"), rdf.TypeTerm, clsA))
	g.Add(rdf.T(rdf.NewIRI("http://cat/dup"), serNo, rdf.NewLiteral("SN0000")))
	g.Add(rdf.T(rdf.NewIRI("http://cat/dup"), color, rdf.NewLiteral("red")))
	g.Add(rdf.T(rdf.NewIRI("http://cat/dup"), size, rdf.NewLiteral("S")))

	strict := Discover(g, []rdf.Term{clsA}, Config{MinDistinctness: 0.999})
	if k := findKey(strict, serNo); k != nil {
		t.Errorf("duplicated serial still a strict key: %+v", *k)
	}
	lax := Discover(g, []rdf.Term{clsA}, Config{MinDistinctness: 0.9})
	if k := findKey(lax, serNo); k == nil {
		t.Error("almost-key not found at 0.9 distinctness")
	}
}

func TestDiscoverMinInstances(t *testing.T) {
	g := rdf.NewGraph()
	tiny := rdf.NewIRI("http://onto/Tiny")
	for i := 0; i < 3; i++ {
		inst := rdf.NewIRI(fmt.Sprintf("http://cat/t%d", i))
		g.Add(rdf.T(inst, rdf.TypeTerm, tiny))
		g.Add(rdf.T(inst, serNo, rdf.NewLiteral(fmt.Sprintf("S%d", i))))
	}
	if keys := Discover(g, []rdf.Term{tiny}, Config{MinInstances: 5}); len(keys) != 0 {
		t.Errorf("keys over tiny class: %v", keys)
	}
}

func TestDiscoverNilClassesScansAll(t *testing.T) {
	g := keyGraph(t)
	keys := Discover(g, nil, Config{})
	if findKey(keys, serNo) == nil {
		t.Errorf("nil classes scan missed the serial key: %v", keys)
	}
}

func TestDiscoverArity1Only(t *testing.T) {
	g := keyGraph(t)
	keys := Discover(g, []rdf.Term{clsA}, Config{MaxArity: 1})
	for _, k := range keys {
		if len(k.Properties) > 1 {
			t.Errorf("arity-2 key at MaxArity 1: %v", k)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key{
		Class:        clsA,
		Properties:   []rdf.Term{serNo},
		Coverage:     1,
		Distinctness: 0.987,
	}
	s := k.String()
	for _, want := range []string{"key(A)", "serial", "0.987"} {
		if !strings.Contains(s, want) {
			t.Errorf("String = %q missing %q", s, want)
		}
	}
}

func TestDiscoverOnGeneratedCatalog(t *testing.T) {
	// On the synthetic catalog, partNumber should surface as an
	// (almost-)key for the frequent classes: serial chunks make most
	// part numbers unique within a class.
	ds, err := datagen.Generate(datagen.SmallConfig(8))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	keys := Discover(ds.Local, ds.Leaves[:4], Config{MinDistinctness: 0.9})
	foundPN := false
	for _, k := range keys {
		if len(k.Properties) == 1 && k.Properties[0] == datagen.PartNumberProp {
			foundPN = true
		}
	}
	if !foundPN {
		t.Errorf("partNumber not discovered as almost-key; keys: %v", keys)
	}
}
