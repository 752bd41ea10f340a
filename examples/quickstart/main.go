// Quickstart: learn classification rules from a handful of expert links
// and use them to classify a new provider item, all through the public
// API. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	datalink "repro"
)

func main() {
	pn := datalink.NewIRI("http://shop.example/prop/partNumber")

	// The local catalog's ontology: Product > {Resistor, Capacitor}.
	ol := datalink.NewOntology()
	product := datalink.NewIRI("http://shop.example/onto/Product")
	resistor := datalink.NewIRI("http://shop.example/onto/Resistor")
	capacitor := datalink.NewIRI("http://shop.example/onto/Capacitor")
	ol.AddSubClassOf(resistor, product)
	ol.AddSubClassOf(capacitor, product)

	// SL: the catalog (typed instances). SE: provider documents (no
	// schema, just part numbers). TS: expert-validated same-as links.
	se := datalink.NewGraph()
	sl := datalink.NewGraph()
	var ts datalink.TrainingSet
	addLink := func(id, partNumber string, class datalink.Term) {
		ext := datalink.NewIRI("http://provider.example/item/" + id)
		loc := datalink.NewIRI("http://shop.example/catalog/" + id)
		se.Add(datalink.T(ext, pn, datalink.NewLiteral(partNumber)))
		sl.Add(datalink.T(loc, datalink.RDFType, class))
		ts.Links = append(ts.Links, datalink.Link{External: ext, Local: loc})
	}

	// Resistor part numbers carry "ohm"; tantalum capacitors carry "T83"
	// (the paper's own example segments).
	addLink("r1", "CRCW0805-100ohm", resistor)
	addLink("r2", "RN55/220ohm", resistor)
	addLink("r3", "ohm 470 P99", resistor)
	addLink("r4", "MELF.512.ohm", resistor)
	addLink("c1", "T83-104-16V", capacitor)
	addLink("c2", "T83 220uF", capacitor)
	addLink("c3", "K55/T83/330", capacitor)

	// Learn rules (Algorithm 1). The low threshold suits the tiny TS.
	pipeline, err := datalink.NewPipeline(
		datalink.LearnerConfig{SupportThreshold: 0.1},
		ts, se, sl, ol,
	)
	if err != nil {
		log.Fatalf("learning: %v", err)
	}
	fmt.Printf("learned %d rules:\n", pipeline.Model.Rules.Len())
	for _, r := range pipeline.Model.Rules.Rules {
		fmt.Printf("  %s\n", r)
	}

	// A new provider document arrives.
	newItem := datalink.NewIRI("http://provider.example/item/new-1")
	se.Add(datalink.T(newItem, pn, datalink.NewLiteral("ZZ-473-ohm-0805")))

	// Queries run on a snapshot of the pipeline, taken after the arrival.
	view := pipeline.Snapshot()
	fmt.Printf("\nclassifying %s\n", newItem.Value)
	for _, p := range view.Classify(newItem) {
		fmt.Printf("  -> %s  (confidence %.2f, lift %.1f, segment %q)\n",
			p.Class.Value, p.Rule.Confidence(), p.Rule.Lift(), p.Rule.Segment)
	}

	// The reduced linking space: the item is only compared against
	// instances of the predicted class instead of the whole catalog.
	sr := view.ReducedSpace(newItem)
	fmt.Printf("\nlinking space: %d of %d catalog items (%.1fx reduction)\n",
		sr.UnionSize, sr.CatalogSize, sr.ReductionFactor())
}
