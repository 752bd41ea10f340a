// Fusion: the end of the paper's motivating pipeline — after rules have
// reduced the linking space and the matcher has declared same-as links,
// "one data item is built using all the data items that represent the
// same real world object". This example links a provider document into
// the catalog and fuses both descriptions with per-property strategies.
// Run with:
//
//	go run ./examples/fusion
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	datalink "repro"
)

func main() {
	pn := datalink.NewIRI("http://shop.example/prop/partNumber")
	label := datalink.NewIRI("http://shop.example/prop/label")
	stock := datalink.NewIRI("http://shop.example/prop/stock")

	ol := datalink.NewOntology()
	product := datalink.NewIRI("http://shop.example/onto/Product")
	resistor := datalink.NewIRI("http://shop.example/onto/Resistor")
	ol.AddSubClassOf(resistor, product)

	se := datalink.NewGraph()
	sl := datalink.NewGraph()
	var ts datalink.TrainingSet
	add := func(id, pnv string) {
		ext := datalink.NewIRI("http://provider.example/item/" + id)
		loc := datalink.NewIRI("http://shop.example/catalog/" + id)
		se.Add(datalink.T(ext, pn, datalink.NewLiteral(pnv)))
		sl.Add(datalink.T(loc, pn, datalink.NewLiteral(pnv)))
		sl.Add(datalink.T(loc, datalink.RDFType, resistor))
		ts.Links = append(ts.Links, datalink.Link{External: ext, Local: loc})
	}
	for i, v := range []string{"RN55-ohm-1", "RN55-ohm-2", "RN55-ohm-3"} {
		add(fmt.Sprintf("t%d", i), v)
	}

	// The catalog entry our incoming item will match (part of SL before
	// the pipeline builds its instance index).
	catalogEntry := datalink.NewIRI("http://shop.example/catalog/P77")
	sl.Add(datalink.T(catalogEntry, pn, datalink.NewLiteral("RN55-ohm-77")))
	sl.Add(datalink.T(catalogEntry, label, datalink.NewLiteral("RN55 resistor")))
	sl.Add(datalink.T(catalogEntry, stock, datalink.NewLiteral("412")))
	sl.Add(datalink.T(catalogEntry, datalink.RDFType, resistor))

	pipeline, err := datalink.NewPipeline(datalink.LearnerConfig{SupportThreshold: 0.1}, ts, se, sl, ol)
	if err != nil {
		log.Fatalf("learning: %v", err)
	}

	// A new provider item arrives with a richer description than the
	// catalog entry it matches.
	newItem := datalink.NewIRI("http://provider.example/item/incoming")
	se.Add(datalink.T(newItem, pn, datalink.NewLiteral("RN55.ohm.77")))
	se.Add(datalink.T(newItem, label, datalink.NewLiteral("RN55 precision metal film resistor, 1% tolerance")))

	// Queries run on a snapshot of the pipeline, taken after the arrival;
	// the item's best match inside its reduced space is its top 1.
	top, err := pipeline.Snapshot().LinkTopK(context.Background(), []datalink.Term{newItem}, datalink.LinkerConfig{
		Comparators: []datalink.Comparator{{
			ExternalProperty: pn, LocalProperty: pn,
			Measure: datalink.JaroWinkler, Weight: 1,
		}},
		Threshold: 0.9,
	}, 1)
	if err != nil {
		log.Fatalf("linking: %v", err)
	}
	if len(top[newItem]) == 0 {
		log.Fatal("no match found inside the reduced space")
	}
	m := top[newItem][0]
	fmt.Printf("linked %s\n    -> %s (score %.3f)\n\n", m.External.Value, m.Local.Value, m.Score)

	// Fuse: keep the catalog part number, take the longest label, union
	// everything else.
	entities := datalink.Fuse(
		[][2]datalink.Term{{m.External, m.Local}},
		se, sl,
		datalink.FusionConfig{
			Default: datalink.FuseUnion,
			PerProperty: map[datalink.Term]datalink.FusionStrategy{
				pn:    datalink.FusePreferLocal,
				label: datalink.FuseLongest,
			},
		},
	)
	e := entities[0]
	fmt.Printf("fused entity %s\n", e.ID.Value)
	for _, p := range []datalink.Term{pn, label, stock} {
		for _, v := range e.Properties[p] {
			fmt.Printf("  %-60s = %q  [%s]\n", p.Value, v.Term.Value, v.Provenance)
		}
	}

	// The fused graph serializes to Turtle for the catalog update.
	fmt.Println("\nfused graph as Turtle:")
	g := datalink.FusedToGraph(entities)
	if err := datalink.WriteTurtle(os.Stdout, g, datalink.TurtleWriterOptions{
		Prefixes: map[string]string{
			"owl":  "http://www.w3.org/2002/07/owl#",
			"prop": "http://shop.example/prop/",
			"cat":  "http://shop.example/catalog/",
			"prov": "http://provider.example/item/",
		},
	}); err != nil {
		log.Fatalf("serializing: %v", err)
	}
}
