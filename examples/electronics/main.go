// Electronics: the paper's full scenario end to end on a synthetic
// catalog — generate the corpus, learn rules, reproduce Table 1, measure
// the space reduction, and actually link one provider item inside its
// reduced space. Run with:
//
//	go run ./examples/electronics           (small scale, ~seconds)
//	go run ./examples/electronics -paper    (paper scale, |TS|=10265)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	datalink "repro"
)

func main() {
	paper := flag.Bool("paper", false, "run at the paper's scale (slower)")
	seed := flag.Int64("seed", 42, "corpus seed")
	flag.Parse()

	cfg := datalink.SmallCorpusConfig(*seed)
	if *paper {
		cfg = datalink.PaperCorpusConfig(*seed)
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		log.Fatalf("generating corpus: %v", err)
	}
	fmt.Printf("corpus: %d ontology classes (%d leaves), %d catalog items, |TS|=%d\n",
		ds.Ontology.Len(), len(ds.Ontology.Leaves()), cfg.CatalogSize, ds.Training.Len())

	corpus, err := datalink.BuildCorpus(ds, datalink.LearnerConfig{})
	if err != nil {
		log.Fatalf("learning: %v", err)
	}
	fmt.Printf("learned %d rules over property %s\n\n",
		corpus.Model.Rules.Len(), datalink.PartNumberProperty.Value)

	// The paper's Table 1 and the Section 5 statistics.
	if err := datalink.SectionStatsTable(datalink.SectionStats(corpus)).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := datalink.Table1Table(datalink.Table1(corpus, datalink.PaperBands())).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := datalink.SpaceReductionTable(datalink.SpaceReduction(corpus, datalink.PaperBands())).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Take one training item that fires a rule and walk the full pipeline
	// for it: predict classes, build the subspace, and match inside it.
	var (
		item  datalink.Term
		truth datalink.Term
		preds []datalink.Prediction
	)
	for _, link := range ds.Training.Links {
		p := corpus.Classifier.Classify(link.External, ds.External)
		if len(p) == 0 {
			continue
		}
		if len(preds) == 0 || p[0].Rule.Confidence() > preds[0].Rule.Confidence() {
			item, truth, preds = link.External, link.Local, p
		}
		if preds[0].Rule.Confidence() == 1 {
			break
		}
	}
	if len(preds) == 0 {
		fmt.Println("\nno item fired any rule (rare; try another seed)")
		return
	}
	fmt.Printf("\nitem %s\n", item.Value)
	for _, p := range preds {
		fmt.Printf("  predicted %s (conf %.2f, segment %q)\n",
			p.Class.Value, p.Rule.Confidence(), p.Rule.Segment)
	}
	sr := datalink.Space(item, preds, corpus.Instances)
	fmt.Printf("  reduced space: %d of %d (%.0fx)\n", sr.UnionSize, sr.CatalogSize, sr.ReductionFactor())

	// Link inside the reduced space with a Jaro-Winkler matcher on the
	// part-number property, on a snapshot of a pipeline over the corpus:
	// the item's best match at or above 0.85 is its top 1.
	pipeline := datalink.NewPipelineWithModel(corpus.Model, ds.External, ds.Local, ds.Ontology)
	top, err := pipeline.Snapshot().LinkTopK(context.Background(), []datalink.Term{item}, datalink.LinkerConfig{
		Comparators: []datalink.Comparator{{
			ExternalProperty: datalink.PartNumberProperty, LocalProperty: datalink.PartNumberProperty,
			Measure: datalink.JaroWinkler, Weight: 1,
		}},
		Threshold: 0.85,
	}, 1)
	if err != nil {
		log.Fatalf("linking: %v", err)
	}
	if len(top[item]) == 0 {
		fmt.Println("  no match above threshold inside the reduced space")
		return
	}
	best := top[item][0]
	status := "WRONG"
	if best.Local == truth {
		status = "correct"
	}
	fmt.Printf("  linked to %s (score %.3f) — %s\n", best.Local.Value, best.Score, status)
}
