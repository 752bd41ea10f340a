package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	datalink "repro"
)

// Sizes of the generated inputs. Every one is fixed, so two runs at one
// seed send the same requests.
const (
	heldOutPct = 30  // share of the expert links held out of learning
	probeItems = 10  // answer-checked probes; items per restart check
	qualityN   = 180 // held-out items the F1 is scored on
	// tailUpserts is the WAL tail written before each restart. The
	// first few upserts after a checkpoint pay copy-on-write copies; a
	// long tail keeps them a small share of the upsert samples.
	tailUpserts = 180
	warmItems   = 2 // probe items of the warm-up link request
	// corpusSeed fixes the corpus: the paper-scale corpus at the seed
	// the repository's experiments use. splitSeed fixes the split of its
	// expert links, and so the model learned and the quality set. The
	// run's seed varies the order items are asked in, the probes and
	// the schedule, so runs at different seeds do the same work and the
	// spread between them is the measurement's.
	corpusSeed = 42
	splitSeed  = 42
)

// itemSpec is the upsert wire form of one item.
type itemSpec struct {
	ID         string              `json:"id"`
	Properties map[string][]string `json:"properties"`
}

// inputs is everything generated from the seed before any timing
// starts: the paper-scale corpus, the split of its expert links, and
// every request body a workload sends.
type inputs struct {
	seed uint64
	ds   *datalink.Dataset

	train []datalink.Link // learned
	held  []datalink.Link // queried; the first qualityN in the seed's order

	// quality is held[:qualityN], the set link_f1 is scored on: the
	// same items at every seed, in the seed's order. probes, its first
	// items, are answer-checked against the benchmark-built pipeline
	// and re-asked around every restart. link_serve's stream asks the
	// held-out items in order, so it starts with the quality set.
	probes, quality []datalink.Link

	ext       []itemSpec // every external item, rendering A, by id
	extIndex  map[string]int
	bulk      [2][]byte // NDJSON bulk bodies of ext, renderings A and B
	learnBody []byte
}

// renderB is the second rendering of a value: separators swapped and
// one appended. The paper's splitter cuts on every non-alphanumeric
// rune, so the item's segments and classes stay the same while every
// stored value, and so the value index, changes.
func renderB(v string) string {
	return strings.NewReplacer("_", "-", " ", "-").Replace(v) + "-"
}

func render(s itemSpec, alt bool) itemSpec {
	if !alt {
		return s
	}
	props := make(map[string][]string, len(s.Properties))
	for p, vs := range s.Properties {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = renderB(v)
		}
		props[p] = out
	}
	return itemSpec{ID: s.ID, Properties: props}
}

func newInputs(seed uint64) (*inputs, error) {
	ds, err := datalink.GenerateCorpus(datalink.PaperCorpusConfig(corpusSeed))
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	in := &inputs{seed: seed, ds: ds}
	links := append([]datalink.Link(nil), ds.Training.Links...)
	shuffle(links, splitSeed)
	nHeld := len(links) * heldOutPct / 100
	in.train, in.held = links[nHeld:], links[:nHeld]
	in.quality = in.held[:qualityN]
	shuffle(in.quality, seed)
	in.probes = in.quality[:probeItems]

	in.ext = itemSpecs(ds.External)
	in.extIndex = make(map[string]int, len(in.ext))
	for i, s := range in.ext {
		in.extIndex[s.ID] = i
	}
	for r := range in.bulk {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, s := range in.ext {
			if err := enc.Encode(render(s, r == 1)); err != nil {
				return nil, err
			}
		}
		in.bulk[r] = b.Bytes()
	}
	type linkJSON struct {
		External string `json:"external"`
		Local    string `json:"local"`
	}
	lj := make([]linkJSON, len(in.train))
	for i, l := range in.train {
		lj[i] = linkJSON{l.External.Value, l.Local.Value}
	}
	if in.learnBody, err = json.Marshal(map[string]any{"links": lj, "replace": true}); err != nil {
		return nil, err
	}
	return in, nil
}

func shuffle(links []datalink.Link, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
}

// itemSpecs converts a graph's items into upsert specs of their literal
// properties, sorted by id.
func itemSpecs(g *datalink.Graph) []itemSpec {
	subjects := g.AllSubjects()
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].Compare(subjects[j]) < 0 })
	out := make([]itemSpec, 0, len(subjects))
	for _, s := range subjects {
		spec := itemSpec{ID: s.Value, Properties: map[string][]string{}}
		for _, tr := range g.Find(s, datalink.Term{}, datalink.Term{}) {
			if tr.O.IsLiteral() {
				spec.Properties[tr.P.Value] = append(spec.Properties[tr.P.Value], tr.O.Value)
			}
		}
		for _, vs := range spec.Properties {
			sort.Strings(vs)
		}
		out = append(out, spec)
	}
	return out
}

// upsertBody is a single-item POST /v1/items/upsert body for the
// external side.
func upsertBody(s itemSpec) []byte {
	b, err := json.Marshal(map[string]any{"side": "external", "items": []itemSpec{s}})
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}

// linkBody is a POST /v1/link body for items with the default linker.
func linkBody(items ...string) []byte {
	b, err := json.Marshal(map[string]any{"items": items, "top_k": topK})
	if err != nil {
		panic(err)
	}
	return b
}

const topK = 3
