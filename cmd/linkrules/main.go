// Command linkrules drives the full reproduction of "Classification rule
// learning for data linking" (Pernelle & Saïs, LWDM @ EDBT 2012):
// synthetic corpus generation, rule learning, classification, and every
// experiment of the paper's Section 5 plus the extension experiments
// E3-E8 indexed below.
//
// Usage:
//
//	linkrules <command> [flags]
//
// Commands:
//
//	table1      reproduce Table 1 and the Section 5 statistics (E1+E2)
//	stats       print only the Section 5 corpus statistics (E2)
//	reduction   per-band linking-space reduction (E3)
//	blocking    rule-based space vs blocking baselines (E4)
//	sweep       support-threshold sweep (E5a)
//	splitters   separator vs n-gram splitting ablation (E5b)
//	ordering    rule-ordering ablation (E5c)
//	generalize  subsumption generalization experiment (E6)
//	holdout     k-fold held-out evaluation (E7)
//	link        in-space linking through the served path (E8)
//	toponyms    secondary-domain demo (geographic labels)
//	datagen     write a generated corpus to N-Triples files
//	learn       learn rules from corpus files and save them
//	classify    classify external items with saved rules, or run the
//	            batch linking workflow (train → classify → CSV)
//	ingest      stream a corpus file into a service via the bulk path
//	serve       run the live linking service (HTTP/JSON)
//	loadgen     drive a running service with a mixed workload, check
//	            the SLO
//	version     print build identity (version, go version, revision)
//	all         run every experiment in sequence
//
// Performance is measured by the repository benchmark, the separate
// linkbench module (linkbench/README.md), which drives the in-process
// service stack and checks its answers.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	datalink "repro"
	"repro/internal/obs"
)

// printVersion reports the build identity — the same triple every
// /metrics scrape exposes as the linkrules_build_info gauge.
func printVersion() {
	bi := obs.Build()
	fmt.Printf("linkrules %s (%s, %s)\n", bi.Version, bi.Revision, bi.GoVersion)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "stats":
		err = cmdStats(args)
	case "reduction":
		err = cmdReduction(args)
	case "blocking":
		err = cmdBlocking(args)
	case "sweep":
		err = cmdSweep(args)
	case "splitters":
		err = cmdSplitters(args)
	case "ordering":
		err = cmdOrdering(args)
	case "generalize":
		err = cmdGeneralize(args)
	case "holdout":
		err = cmdHoldout(args)
	case "link":
		err = cmdLink(args)
	case "rules":
		err = cmdRules(args)
	case "keys":
		err = cmdKeys(args)
	case "toponyms":
		err = cmdToponyms(args)
	case "datagen":
		err = cmdDatagen(args)
	case "learn":
		err = cmdLearn(args)
	case "classify":
		err = cmdClassify(args)
	case "ingest":
		err = cmdIngest(args)
	case "all":
		err = cmdAll(args)
	case "export":
		err = cmdExport(args)
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "version", "-version", "--version":
		printVersion()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "linkrules: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkrules %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `linkrules — reproduction of "Classification rule learning for data linking" (EDBT/LWDM 2012)

usage: linkrules <command> [flags]

experiments (E1-E8):
  table1      Table 1 + Section 5 statistics        (E1, E2)
  stats       Section 5 corpus statistics only      (E2)
  reduction   linking-space reduction per band      (E3)
  blocking    comparison against blocking baselines (E4)
  sweep       support-threshold sweep               (E5a)
  splitters   splitter ablation                     (E5b)
  ordering    rule-ordering ablation                (E5c)
  generalize  subsumption generalization            (E6)
  holdout     k-fold held-out evaluation            (E7)
  link        in-space linking on the served path   (E8)
              (pairs/s times classify+expand+score)
  rules       inspect top rules with expert evidence
  keys        discover (almost-)key constraints in the catalog
  toponyms    secondary-domain demo
  all         everything above in sequence
  export      write every experiment table to a directory (.txt + .csv)

pipeline:
  datagen -out DIR     write a corpus as N-Triples files (-stream keeps
                       memory bounded for million-item corpora)
  learn   -data DIR    learn rules from corpus files, save rules.tsv
  classify -rules F    classify external items with saved rules
  classify -data DIR -csv FILE
                       batch linking workflow: train on the corpus's
                       expert links, classify + score every external
                       item, apply the post-classification filters
                       (-threshold, -best, -distinct) and emit an
                       external_id,local_id,confidence CSV
  ingest -file F       stream NDJSON or N-Triples items into a service
                       through the batched bulk path, against a running
                       server (-addr) or straight into a durability
                       directory (-store); -side, -bulk-batch

service:
  serve -addr HOST:PORT   run the live linking service (HTTP/JSON):
                          upsert/remove items, relearn rules, query
                          top-k links in the rule-reduced space
                          (see examples/service for a walkthrough)
        -store DIR        durable mode: WAL + snapshot persistence with
                          crash recovery (-fsync never|interval|always,
                          -snapshot-every N); an existing store's state
                          wins over the corpus flags

  loadgen -addr HOST:PORT drive a running serve over HTTP with a mixed
                          open-loop workload (-qps N, -mix
                          link=90,upsert=9,learn=1) for -duration, diff
                          its /metrics scrapes, and emit a JSON report
                          (stdout, or -out FILE); -slo-p99 MS makes a
                          missed link p99 exit non-zero (-smoke for CI;
                          the corpus flags must match the server's)

  version                 print build identity (also -version)

common flags: -seed N, -scale paper|small, -links N, -catalog N`)
}

// corpusFlags holds the shared corpus-shaping flags and the learner's
// support threshold.
type corpusFlags struct {
	seed    int64
	scale   string
	links   int
	catalog int
	th      float64
}

// addCorpusFlags registers the corpus-shaping flags plus -th, for the
// commands that learn rules with that threshold.
func addCorpusFlags(fs *flag.FlagSet) *corpusFlags {
	cf := addShapeFlags(fs)
	fs.Float64Var(&cf.th, "th", 0, "support threshold (0 = paper default 0.002)")
	return cf
}

// addShapeFlags registers only the corpus-shaping flags, for the
// commands that would ignore -th: they write data, fix their own
// learner config, or (loadgen) leave learning to the server.
func addShapeFlags(fs *flag.FlagSet) *corpusFlags {
	cf := &corpusFlags{}
	fs.Int64Var(&cf.seed, "seed", 42, "corpus generation seed")
	fs.StringVar(&cf.scale, "scale", "paper", "corpus scale: paper or small")
	fs.IntVar(&cf.links, "links", 0, "override training-set size |TS|")
	fs.IntVar(&cf.catalog, "catalog", 0, "override catalog size |SL|")
	return cf
}

func (cf *corpusFlags) config() (datalink.CorpusConfig, error) {
	var cfg datalink.CorpusConfig
	switch cf.scale {
	case "paper":
		cfg = datalink.PaperCorpusConfig(cf.seed)
	case "small":
		cfg = datalink.SmallCorpusConfig(cf.seed)
	default:
		return cfg, fmt.Errorf("unknown scale %q", cf.scale)
	}
	if cf.links > 0 {
		cfg.TrainingLinks = cf.links
	}
	if cf.catalog > 0 {
		cfg.CatalogSize = cf.catalog
	}
	if cfg.CatalogSize < cfg.TrainingLinks {
		cfg.CatalogSize = cfg.TrainingLinks * 2
	}
	return cfg, nil
}

func (cf *corpusFlags) buildCorpus() (*datalink.Corpus, error) {
	cfg, err := cf.config()
	if err != nil {
		return nil, err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return nil, err
	}
	return datalink.BuildCorpus(ds, datalink.LearnerConfig{SupportThreshold: cf.th})
}

func parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(os.Stderr)
	return fs.Parse(args)
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	if err := datalink.SectionStatsTable(datalink.SectionStats(c)).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return datalink.Table1Table(datalink.Table1(c, datalink.PaperBands())).Render(os.Stdout)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	return datalink.SectionStatsTable(datalink.SectionStats(c)).Render(os.Stdout)
}

func cmdReduction(args []string) error {
	fs := flag.NewFlagSet("reduction", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	return datalink.SpaceReductionTable(datalink.SpaceReduction(c, datalink.PaperBands())).Render(os.Stdout)
}

func cmdBlocking(args []string) error {
	fs := flag.NewFlagSet("blocking", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	// The baselines materialize candidate sets; default to a reduced
	// scale unless the user explicitly sized the corpus.
	if cf.scale == "paper" && cf.links == 0 && cf.catalog == 0 {
		cf.links, cf.catalog = 2000, 8000
		fmt.Fprintln(os.Stderr, "linkrules blocking: using -links 2000 -catalog 8000 (override with flags)")
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	rows := datalink.CompareBlocking(c, datalink.DefaultBlockingMethods(c))
	return datalink.BlockingTable(rows).Render(os.Stdout)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	cf := addShapeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	ths := []float64{0.0005, 0.001, 0.002, 0.005, 0.01}
	rows, err := datalink.ThresholdSweep(ds, datalink.LearnerConfig{}, ths)
	if err != nil {
		return err
	}
	return datalink.SweepTable(rows).Render(os.Stdout)
}

func cmdSplitters(args []string) error {
	fs := flag.NewFlagSet("splitters", flag.ContinueOnError)
	cf := addShapeFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	sps := []datalink.Splitter{
		datalink.NewSeparatorSplitter(datalink.SplitterOptions{}),
		datalink.NewSeparatorSplitter(datalink.SplitterOptions{Lowercase: true}),
		datalink.NewNGramSplitter(3, false, datalink.SplitterOptions{}),
		datalink.NewNGramSplitter(4, true, datalink.SplitterOptions{}),
	}
	rows, err := datalink.SplitterAblation(ds, datalink.LearnerConfig{}, sps)
	if err != nil {
		return err
	}
	return datalink.SplitterAblationTable(rows).Render(os.Stdout)
}

func cmdOrdering(args []string) error {
	fs := flag.NewFlagSet("ordering", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	return datalink.OrderingAblationTable(datalink.OrderingAblation(c)).Render(os.Stdout)
}

func cmdGeneralize(args []string) error {
	fs := flag.NewFlagSet("generalize", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	return datalink.GeneralizationTable(datalink.GeneralizationExperiment(c)).Render(os.Stdout)
}

func cmdHoldout(args []string) error {
	fs := flag.NewFlagSet("holdout", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	folds := fs.Int("k", 5, "number of folds")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	s, err := datalink.CrossValidate(ds, datalink.LearnerConfig{SupportThreshold: cf.th}, *folds, cf.seed)
	if err != nil {
		return err
	}
	return datalink.HoldoutTable(s).Render(os.Stdout)
}

func cmdLink(args []string) error {
	fs := flag.NewFlagSet("link", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	workers := fs.Int("workers", 0, "run a single worker count instead of the 1,2,4,... ladder")
	linkTh := fs.Float64("link-threshold", 0, "override the match threshold (0 = default)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("negative worker count %d", *workers)
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	cfg := datalink.DefaultLinkingConfig()
	if *linkTh > 0 {
		cfg.Threshold = *linkTh
	}
	counts := datalink.LinkingWorkerCounts()
	if *workers > 0 {
		counts = []int{*workers}
	}
	rows, err := datalink.LinkingExperiment(c, cfg, counts)
	if err != nil {
		return err
	}
	return datalink.LinkingExperimentTable(rows).Render(os.Stdout)
}

func cmdRules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	top := fs.Int("top", 15, "rules to print")
	examples := fs.Int("examples", 2, "evidence links to print per rule")
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	for i, r := range c.Model.Rules.Rules {
		if i >= *top {
			break
		}
		fmt.Printf("%s\n", r)
		ev := c.Model.Evidence(r, *examples)
		for _, link := range ev.Supporting {
			fmt.Printf("    + %s  (pn %q)\n", link.External.Value,
				pnOf(c.Dataset.External, link.External))
		}
		for _, ce := range ev.Counter {
			fmt.Printf("    - %s  (pn %q, actually %s)\n", ce.Link.External.Value,
				pnOf(c.Dataset.External, ce.Link.External), classNames(ce.Classes))
		}
	}
	return nil
}

func pnOf(g *datalink.Graph, item datalink.Term) string {
	if v, ok := g.FirstObject(item, datalink.PartNumberProperty); ok && v.IsLiteral() {
		return v.Value
	}
	return ""
}

func classNames(classes []datalink.Term) string {
	names := make([]string, len(classes))
	for i, c := range classes {
		s := c.Value
		for j := len(s) - 1; j >= 0; j-- {
			if s[j] == '#' || s[j] == '/' {
				s = s[j+1:]
				break
			}
		}
		names[i] = s
	}
	return strings.Join(names, ",")
}

func cmdKeys(args []string) error {
	fs := flag.NewFlagSet("keys", flag.ContinueOnError)
	cf := addShapeFlags(fs)
	top := fs.Int("top", 20, "keys to print")
	distinct := fs.Float64("distinctness", 0.95, "minimum distinctness")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	found := datalink.DiscoverKeys(ds.Local, ds.Ontology.Leaves(), datalink.KeyConfig{
		MinDistinctness: *distinct,
	})
	fmt.Printf("%d (almost-)keys discovered over %d leaf classes (distinctness >= %.2f):\n",
		len(found), len(ds.Ontology.Leaves()), *distinct)
	for i, k := range found {
		if i >= *top {
			break
		}
		fmt.Printf("  %s\n", k)
	}
	return nil
}

func cmdToponyms(args []string) error {
	fs := flag.NewFlagSet("toponyms", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "generation seed")
	links := fs.Int("links", 2000, "training links")
	if err := parse(fs, args); err != nil {
		return err
	}
	ds, err := datalink.GenerateToponyms(datalink.ToponymConfig{Seed: *seed, Links: *links})
	if err != nil {
		return err
	}
	c, err := datalink.BuildCorpus(ds, datalink.LearnerConfig{
		Properties:       []datalink.Term{datalink.RDFSLabel},
		SupportThreshold: 0.002,
	})
	if err != nil {
		return err
	}
	fmt.Printf("toponym corpus: |TS|=%d, %d rules learned\n\n", ds.Training.Len(), c.Model.Rules.Len())
	return datalink.Table1Table(datalink.Table1(c, datalink.PaperBands())).Render(os.Stdout)
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	cf := addShapeFlags(fs)
	out := fs.String("out", "corpus", "output directory")
	stream := fs.Bool("stream", false, "stream entities to disk as they are generated (bounded memory; triples land in generation order, not sorted)")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	if *stream {
		return streamDatagen(cfg, *out)
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	files := map[string]*datalink.Graph{
		"ontology.nt": ds.Ontology.ToGraph(),
		"local.nt":    ds.Local,
		"external.nt": ds.External,
		"training.nt": ds.Training.ToGraph(),
	}
	for name, g := range files {
		if err := writeGraph(filepath.Join(*out, name), g); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d triples)\n", filepath.Join(*out, name), g.Len())
	}
	return nil
}

// ntSink writes corpus entities straight to their N-Triples files as
// they are generated — `datagen -stream`'s bounded-memory path. The
// corpus is identical to the materialized one; only the line order
// differs (generation order instead of sorted), which any N-Triples
// reader is indifferent to.
type ntSink struct {
	local, external, training *bufio.Writer
	locals, externals         int
}

func (s *ntSink) Local(id, class datalink.Term, pn string) error {
	s.locals++
	_, err := fmt.Fprintf(s.local, "%s\n%s\n",
		datalink.T(id, datalink.RDFType, class),
		datalink.T(id, datalink.PartNumberProperty, datalink.NewLiteral(pn)))
	return err
}

func (s *ntSink) External(id datalink.Term, pn, manufacturer string, local, _ datalink.Term) error {
	s.externals++
	if _, err := fmt.Fprintf(s.external, "%s\n%s\n",
		datalink.T(id, datalink.PartNumberProperty, datalink.NewLiteral(pn)),
		datalink.T(id, datalink.ManufacturerProperty, datalink.NewLiteral(manufacturer))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(s.training, "%s\n", datalink.T(id, datalink.OWLSameAs, local))
	return err
}

// streamDatagen is `datagen -stream`: generate the corpus directly into
// the output files without materializing it.
func streamDatagen(cfg datalink.CorpusConfig, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	sink := &ntSink{}
	names := []string{"local.nt", "external.nt", "training.nt"}
	dests := []**bufio.Writer{&sink.local, &sink.external, &sink.training}
	files := make([]*os.File, 0, len(names))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for i, name := range names {
		f, err := os.Create(filepath.Join(out, name))
		if err != nil {
			return err
		}
		files = append(files, f)
		*dests[i] = bufio.NewWriter(f)
	}
	ont, err := datalink.StreamCorpus(cfg, sink)
	if err != nil {
		return err
	}
	for i, bw := range []*bufio.Writer{sink.local, sink.external, sink.training} {
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (streamed)\n", filepath.Join(out, names[i]))
	}
	og := ont.ToGraph()
	if err := writeGraph(filepath.Join(out, "ontology.nt"), og); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d triples)\n", filepath.Join(out, "ontology.nt"), og.Len())
	fmt.Printf("streamed %d local and %d external items\n", sink.locals, sink.externals)
	return nil
}

func writeGraph(path string, g *datalink.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := datalink.WriteNTriples(f, g); err != nil {
		return err
	}
	return f.Close()
}

func readGraph(path string) (*datalink.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datalink.ReadNTriples(f)
}

func cmdLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ContinueOnError)
	dir := fs.String("data", "corpus", "corpus directory (from `linkrules datagen`)")
	rulesOut := fs.String("rules", "rules.tsv", "output rules file")
	th := fs.Float64("th", 0, "support threshold (0 = paper default 0.002)")
	property := fs.String("property", "", "restrict learning to one property IRI (default: all literal properties, as in Algorithm 1)")
	if err := parse(fs, args); err != nil {
		return err
	}
	ds, err := readDataset(*dir)
	if err != nil {
		return err
	}
	cfg := datalink.LearnerConfig{SupportThreshold: *th}
	if *property != "" {
		cfg.Properties = []datalink.Term{datalink.NewIRI(*property)}
	}
	m, err := datalink.Learn(cfg, ds.Training, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		return err
	}
	f, err := os.Create(*rulesOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Rules.Write(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("learned %d rules from %d links; wrote %s\n", m.Rules.Len(), m.Stats.TSSize, *rulesOut)
	fmt.Printf("stats: %d distinct segments, %d occurrences, %d frequent classes\n",
		m.Stats.DistinctSegments, m.Stats.SegmentOccurrences, m.Stats.FrequentClasses)
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	rulesIn := fs.String("rules", "rules.tsv", "rules file (from `linkrules learn`)")
	extPath := fs.String("external", "corpus/external.nt", "external items file")
	topK := fs.Int("top", 3, "predictions to print — or candidate links to score — per item")
	limit := fs.Int("limit", 20, "items to print (0 = all; print mode only)")
	dataDir := fs.String("data", "", "linking mode: corpus directory (from `linkrules datagen`) to train on and link")
	csvOut := fs.String("csv", "", "linking mode: write an external_id,local_id,confidence CSV to FILE (- = stdout)")
	threshold := fs.Float64("threshold", 0.5, "linking mode: minimum match confidence")
	th := fs.Float64("th", 0, "linking mode: rule support threshold (0 = paper default 0.002)")
	best := fs.Bool("best", false, "linking mode filter: keep only the best link per external item")
	distinct := fs.Bool("distinct", false, "linking mode filter: one-to-one links, kept greedily by confidence")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *csvOut != "" {
		return classifyLinks(*dataDir, *csvOut, *threshold, *th, *topK, *best, *distinct)
	}
	rf, err := os.Open(*rulesIn)
	if err != nil {
		return err
	}
	defer rf.Close()
	rs, err := datalink.ReadRules(rf)
	if err != nil {
		return err
	}
	se, err := readGraph(*extPath)
	if err != nil {
		return err
	}
	cl := datalink.NewClassifier(rs, nil)
	items := se.AllSubjects()
	sort.Slice(items, func(i, j int) bool { return items[i].Compare(items[j]) < 0 })
	printed := 0
	for _, item := range items {
		if *limit > 0 && printed >= *limit {
			break
		}
		preds := cl.Classify(item, se)
		if len(preds) == 0 {
			continue
		}
		printed++
		fmt.Printf("%s\n", item.Value)
		for k, p := range preds {
			if k >= *topK {
				break
			}
			fmt.Printf("  -> %s (conf=%.3f lift=%.1f via %q)\n",
				p.Class.Value, p.Rule.Confidence(), p.Rule.Lift(), p.Rule.Segment)
		}
	}
	if printed == 0 {
		fmt.Println("no external item matched any rule")
	}
	return nil
}

// classifyLinks is `classify -csv`: the batch linking workflow in one
// command. Train on the corpus's expert links, classify every external
// item to reduce its candidate space, score the candidates, then apply
// the post-classification filter rules (-threshold, -best, -distinct)
// and emit one external_id,local_id,confidence row per surviving link.
func classifyLinks(dir, out string, threshold, support float64, topK int, best, distinct bool) error {
	if dir == "" {
		return fmt.Errorf("-csv needs -data DIR (a corpus from `linkrules datagen`)")
	}
	if threshold < 0 || threshold > 1 {
		return fmt.Errorf("-threshold must be in [0,1], got %g", threshold)
	}
	ds, err := readDataset(dir)
	if err != nil {
		return err
	}
	p, err := datalink.NewPipeline(datalink.LearnerConfig{SupportThreshold: support},
		ds.Training, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		return err
	}
	cfg := datalink.DefaultLinkingConfig()
	cfg.Threshold = threshold
	items := ds.External.AllSubjects()
	sort.Slice(items, func(i, j int) bool { return items[i].Compare(items[j]) < 0 })
	if topK < 1 {
		topK = 1
	}
	byItem, err := p.Snapshot().LinkTopK(context.Background(), items, cfg, topK)
	if err != nil {
		return err
	}
	var links []datalink.Match
	for _, item := range items {
		ms := byItem[item]
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Score > ms[j].Score })
		if best && len(ms) > 1 {
			ms = ms[:1]
		}
		links = append(links, ms...)
	}
	if distinct {
		links = distinctLinks(links)
	}

	var f *os.File
	w := io.Writer(os.Stdout)
	if out != "-" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"external_id", "local_id", "confidence"}); err != nil {
		return err
	}
	linked := map[datalink.Term]struct{}{}
	for _, m := range links {
		linked[m.External] = struct{}{}
		if err := cw.Write([]string{m.External.Value, m.Local.Value, strconv.FormatFloat(m.Score, 'f', 4, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "linkrules classify: %d links over %d of %d external items (threshold %.2f)\n",
		len(links), len(linked), len(items), threshold)
	return nil
}

// distinctLinks enforces one-to-one linking greedily by confidence: walk
// the links in descending score order and drop any that reuse an
// already-linked external or local item. The survivors keep their
// original (per-item) order.
func distinctLinks(links []datalink.Match) []datalink.Match {
	ordered := append([]datalink.Match(nil), links...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Score > ordered[j].Score })
	usedE, usedL := map[datalink.Term]struct{}{}, map[datalink.Term]struct{}{}
	keep := map[datalink.Match]struct{}{}
	for _, m := range ordered {
		if _, dup := usedE[m.External]; dup {
			continue
		}
		if _, dup := usedL[m.Local]; dup {
			continue
		}
		usedE[m.External], usedL[m.Local] = struct{}{}, struct{}{}
		keep[m] = struct{}{}
	}
	out := links[:0]
	for _, m := range links {
		if _, ok := keep[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	out := fs.String("out", "results", "output directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	linkRows, err := datalink.LinkingExperiment(c, datalink.DefaultLinkingConfig(), datalink.LinkingWorkerCounts())
	if err != nil {
		return err
	}
	tables := map[string]*datalink.ExperimentTable{
		"stats":      datalink.SectionStatsTable(datalink.SectionStats(c)),
		"table1":     datalink.Table1Table(datalink.Table1(c, datalink.PaperBands())),
		"reduction":  datalink.SpaceReductionTable(datalink.SpaceReduction(c, datalink.PaperBands())),
		"ordering":   datalink.OrderingAblationTable(datalink.OrderingAblation(c)),
		"generalize": datalink.GeneralizationTable(datalink.GeneralizationExperiment(c)),
		"link":       datalink.LinkingExperimentTable(linkRows),
	}
	for name, tbl := range tables {
		if err := exportTable(filepath.Join(*out, name), tbl); err != nil {
			return err
		}
		fmt.Printf("wrote %s.txt and %s.csv\n", filepath.Join(*out, name), filepath.Join(*out, name))
	}
	return nil
}

func exportTable(base string, tbl *datalink.ExperimentTable) error {
	txt, err := os.Create(base + ".txt")
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := tbl.Render(txt); err != nil {
		return err
	}
	if err := txt.Close(); err != nil {
		return err
	}
	csvF, err := os.Create(base + ".csv")
	if err != nil {
		return err
	}
	defer csvF.Close()
	if err := tbl.WriteCSV(csvF); err != nil {
		return err
	}
	return csvF.Close()
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	cf := addCorpusFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	c, err := cf.buildCorpus()
	if err != nil {
		return err
	}
	if err := datalink.SectionStatsTable(datalink.SectionStats(c)).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := datalink.Table1Table(datalink.Table1(c, datalink.PaperBands())).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := datalink.SpaceReductionTable(datalink.SpaceReduction(c, datalink.PaperBands())).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := datalink.OrderingAblationTable(datalink.OrderingAblation(c)).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := datalink.GeneralizationTable(datalink.GeneralizationExperiment(c)).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	linkRows, err := datalink.LinkingExperiment(c, datalink.DefaultLinkingConfig(), datalink.LinkingWorkerCounts())
	if err != nil {
		return err
	}
	if err := datalink.LinkingExperimentTable(linkRows).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	hs, err := datalink.CrossValidate(ds, datalink.LearnerConfig{SupportThreshold: cf.th}, 5, cf.seed)
	if err != nil {
		return err
	}
	if err := datalink.HoldoutTable(hs).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	// Blocking comparison on a reduced corpus (materialized candidates).
	bc := &corpusFlags{seed: cf.seed, scale: cf.scale, links: 2000, catalog: 8000, th: cf.th}
	if cf.scale == "small" {
		bc.links, bc.catalog = 0, 0
	}
	cb, err := bc.buildCorpus()
	if err != nil {
		return err
	}
	rows := datalink.CompareBlocking(cb, datalink.DefaultBlockingMethods(cb))
	return datalink.BlockingTable(rows).Render(os.Stdout)
}
