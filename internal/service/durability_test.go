package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	datalink "repro"
	"repro/internal/rdf"
	"repro/internal/store"
)

// durableOpts mirrors corpusService's configuration.
func durableOpts() Options {
	return Options{
		Learner: datalink.LearnerConfig{SupportThreshold: 0.01},
		DefaultLinker: datalink.LinkerConfig{
			Comparators: []datalink.Comparator{{
				ExternalProperty: datalink.NewIRI(pnProp),
				LocalProperty:    datalink.NewIRI(pnProp),
				Measure:          datalink.Levenshtein,
				Weight:           1,
			}},
			Threshold: 0.5,
		},
	}
}

// corpusSeed builds the hand-written test corpus as a Seed.
func corpusSeed(t *testing.T) *Seed {
	t.Helper()
	og := datalink.NewGraph()
	for _, c := range []string{clsRes, clsCap} {
		og.Add(datalink.T(datalink.NewIRI(c), datalink.RDFType, datalink.NewIRI("http://www.w3.org/2002/07/owl#Class")))
	}
	ol, err := datalink.OntologyFromGraph(og)
	if err != nil {
		t.Fatal(err)
	}
	se, sl := datalink.NewGraph(), datalink.NewGraph()
	var links []datalink.Link
	for i := 0; i < 20; i++ {
		for _, kind := range []struct {
			class, prefix, suffix string
		}{{clsRes, "r", "RES"}, {clsCap, "c", "CAP"}} {
			loc := datalink.NewIRI(fmt.Sprintf("http://ex.org/l/%s%d", kind.prefix, i))
			ext := datalink.NewIRI(fmt.Sprintf("http://ex.org/e/%s%d", kind.prefix, i))
			sl.Add(datalink.T(loc, datalink.NewIRI(pnProp), datalink.NewLiteral(fmt.Sprintf("%s-%04d-X", kind.suffix, i))))
			sl.Add(datalink.T(loc, datalink.RDFType, datalink.NewIRI(kind.class)))
			se.Add(datalink.T(ext, datalink.NewIRI(pnProp), datalink.NewLiteral(fmt.Sprintf("%s-%04d-Z", kind.suffix, i))))
			if i < 10 {
				links = append(links, datalink.Link{External: ext, Local: loc})
			}
		}
	}
	return &Seed{External: se, Local: sl, Ontology: ol, Training: links}
}

// crash simulates a SIGKILL of svc: nothing is closed, flushed or
// synced, but background checkpoint goroutines are stopped — a real
// kill terminates those too, and leaving them running would let the
// dead process prune WAL segments under the recovered one's feet
// (which two *processes* cannot do to each other).
func crash(svc *Service) {
	svc.mu.Lock()
	svc.closing = true
	svc.mu.Unlock()
	svc.ckptWG.Wait()
}

// restoreService opens the store directory and restores a service over
// it, failing the test on any error.
func restoreService(t *testing.T, dir string, seed *Seed, sopts store.Options) *Service {
	t.Helper()
	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	svc, err := Restore(st, rec, seed, durableOpts())
	if err != nil {
		t.Fatalf("restoring service: %v", err)
	}
	return svc
}

// graphText renders a published graph deterministically for comparison.
func graphText(t *testing.T, g *datalink.Graph) string {
	t.Helper()
	var b strings.Builder
	if err := datalink.WriteNTriples(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// serviceFingerprint captures everything the equivalence tests compare:
// both graphs, the rule set response, and the top-k link response over
// the full corpus.
func serviceFingerprint(t *testing.T, s *Service) (ext, loc, rules, links string) {
	t.Helper()
	qs := s.state.Load()
	ext = graphText(t, qs.se)
	loc = graphText(t, qs.sl)
	h := s.Handler()
	rr := call(t, h, http.MethodGet, "/v1/rules", nil, nil)
	rules = rr.Body.String()
	lr := call(t, h, http.MethodPost, "/v1/link", map[string]any{"top_k": 3}, nil)
	links = lr.Body.String()
	return
}

// mutation is one scripted service mutation, applied over HTTP so both
// the live and the durable service take the exact handler path.
type mutation struct {
	path string
	body map[string]any
	// raw, when non-empty, is sent verbatim with contentType instead of
	// JSON-marshaling body — for the streaming bulk endpoint.
	raw         string
	contentType string
}

// randomMutations scripts n random upserts, removals and learns over the
// corpus's item space.
func randomMutations(rng *rand.Rand, n int) []mutation {
	var muts []mutation
	id := func(side, kind string, i int) string {
		return fmt.Sprintf("http://ex.org/%s/%s%d", side, kind, i)
	}
	kinds := []struct {
		prefix, suffix, class string
	}{{"r", "RES", clsRes}, {"c", "CAP", clsCap}}
	for len(muts) < n {
		k := kinds[rng.Intn(2)]
		i := rng.Intn(26) // hits existing items and creates new ones
		switch rng.Intn(5) {
		case 0, 1: // upsert external
			muts = append(muts, mutation{path: "/v1/items/upsert", body: map[string]any{
				"side": "external",
				"items": []map[string]any{{
					"id":         id("e", k.prefix, i),
					"properties": map[string][]string{pnProp: {fmt.Sprintf("%s-%04d-%c", k.suffix, i, 'A'+rng.Intn(26))}},
				}},
			}})
		case 2: // upsert local (with class)
			muts = append(muts, mutation{path: "/v1/items/upsert", body: map[string]any{
				"side": "local",
				"items": []map[string]any{{
					"id":         id("l", k.prefix, i),
					"properties": map[string][]string{pnProp: {fmt.Sprintf("%s-%04d-%c", k.suffix, i, 'A'+rng.Intn(26))}},
					"classes":    []string{k.class},
				}},
			}})
		case 3: // remove (either side)
			side, sid := "external", "e"
			if rng.Intn(2) == 0 {
				side, sid = "local", "l"
			}
			muts = append(muts, mutation{path: "/v1/items/remove", body: map[string]any{
				"side": side,
				"ids":  []string{id(sid, k.prefix, rng.Intn(26))},
			}})
		case 4: // learn a few more links
			var ls []map[string]any
			for j := 0; j < 1+rng.Intn(3); j++ {
				x := rng.Intn(20)
				ls = append(ls, map[string]any{
					"external": id("e", k.prefix, x),
					"local":    id("l", k.prefix, x),
				})
			}
			muts = append(muts, mutation{path: "/v1/learn", body: map[string]any{"links": ls}})
		}
	}
	return muts
}

// applyMutation sends m to the handler; mutations may legitimately fail
// (e.g. learning over links whose endpoints were removed), but both
// services must fail identically, so the status code is returned.
func applyMutation(t *testing.T, h http.Handler, m mutation) int {
	t.Helper()
	if m.raw != "" {
		return rawCall(t, h, m.path, m.contentType, m.raw, nil).Code
	}
	rr := call(t, h, http.MethodPost, m.path, m.body, nil)
	return rr.Code
}

// TestCrashRecoveryEquivalence is the core durability property: a random
// interleaving of upserts, removals and learns applied to (a) a live
// ephemeral service and (b) a durable service that is "killed" (store
// abandoned without close, as SIGKILL would) and recovered from
// snapshot+WAL at a random cut point must leave both with identical
// graphs, rules and top-k link results.
func TestCrashRecoveryEquivalence(t *testing.T) {
	for round := 0; round < 4; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + round)))
			seed := corpusSeed(t)

			// Mirror: plain ephemeral service over an identical corpus.
			mirrorSeed := corpusSeed(t)
			mirror := New(mirrorSeed.External, mirrorSeed.Local, mirrorSeed.Ontology, durableOpts())
			if err := mirror.LearnLinks(mirrorSeed.Training); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			// FsyncAlways: every acknowledged mutation is durable, so the
			// simulated SIGKILL (abandoning the store un-closed, buffers
			// and all) must lose nothing.
			sopts := store.Options{Fsync: store.FsyncAlways, SnapshotEvery: 7}
			durable := restoreService(t, dir, seed, sopts)

			muts := randomMutations(rng, 25)
			cut := rng.Intn(len(muts) + 1)
			for i, m := range muts {
				if i == cut {
					// Crash: no Close, no flush. Recover from disk alone.
					crash(durable)
					durable = restoreService(t, dir, nil, sopts)
				}
				mc := applyMutation(t, mirror.Handler(), m)
				dc := applyMutation(t, durable.Handler(), m)
				if mc != dc {
					t.Fatalf("mutation %d (%s): mirror=%d durable=%d", i, m.path, mc, dc)
				}
			}
			// One more recovery after the full script, covering a crash at
			// the very end (cut == len(muts) covers pre-traffic recovery).
			crash(durable)
			durable = restoreService(t, dir, nil, sopts)

			me, ml, mr, mk := serviceFingerprint(t, mirror)
			de, dl, dr, dk := serviceFingerprint(t, durable)
			if me != de {
				t.Errorf("external graphs diverged after recovery (round %d)", round)
			}
			if ml != dl {
				t.Errorf("local graphs diverged after recovery (round %d)", round)
			}
			if mr != dr {
				t.Errorf("rules diverged after recovery (round %d):\nmirror:  %s\ndurable: %s", round, mr, dr)
			}
			if mk != dk {
				t.Errorf("link results diverged after recovery (round %d):\nmirror:  %s\ndurable: %s", round, mk, dk)
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreFromSeedAndReopen is the plain happy path: boot from seed,
// mutate, close cleanly, reopen without a seed, answer identically.
func TestRestoreFromSeedAndReopen(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever}
	svc := restoreService(t, dir, corpusSeed(t), sopts)

	if code := applyMutation(t, svc.Handler(), mutation{path: "/v1/items/upsert", body: map[string]any{
		"side": "external",
		"items": []map[string]any{{
			"id":         "http://ex.org/e/new1",
			"properties": map[string][]string{pnProp: {"RES-0003-Q"}},
		}},
	}}); code != http.StatusOK {
		t.Fatalf("upsert: %d", code)
	}
	e1, l1, r1, k1 := serviceFingerprint(t, svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := restoreService(t, dir, nil, sopts)
	defer svc2.Close()
	e2, l2, r2, k2 := serviceFingerprint(t, svc2)
	if e1 != e2 || l1 != l2 || r1 != r2 || k1 != k2 {
		t.Error("state diverged across clean close + reopen")
	}

	// Reopening folds nothing new, but the seeded boot and the mutation
	// must have reached a snapshot.
	st := svc2.Store()
	stats := st.Stats()
	if stats.LastSnapshotSeq == 0 && stats.Seq > 0 {
		t.Errorf("no snapshot written: %+v", stats)
	}
}

// TestRecoveryPreservesModelAcrossPostLearnMutations: item mutations
// after the last learn change the graphs (and purge training links)
// without relearning, so a recovery whose snapshot was taken after
// those mutations must serve the model as of the learn, not one learned
// over the checkpoint state.
func TestRecoveryPreservesModelAcrossPostLearnMutations(t *testing.T) {
	mirror := New(corpusSeed(t).External, corpusSeed(t).Local, corpusSeed(t).Ontology, durableOpts())
	if err := mirror.LearnLinks(corpusSeed(t).Training); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc := restoreService(t, dir, corpusSeed(t), store.Options{Fsync: store.FsyncAlways, SnapshotEvery: -1})

	// Post-learn mutations on both: remove a linked local item (purges a
	// training link) and add a fresh external item. Neither relearns.
	muts := []mutation{
		{path: "/v1/items/remove", body: map[string]any{"side": "local", "ids": []string{"http://ex.org/l/r1"}}},
		{path: "/v1/items/upsert", body: map[string]any{"side": "external", "items": []map[string]any{{
			"id": "http://ex.org/e/extra", "properties": map[string][]string{pnProp: {"CAP-0099-Z"}},
		}}}},
	}
	for _, m := range muts {
		if mc, dc := applyMutation(t, mirror.Handler(), m), applyMutation(t, svc.Handler(), m); mc != dc || mc != http.StatusOK {
			t.Fatalf("%s: mirror=%d durable=%d", m.path, mc, dc)
		}
	}
	// Checkpoint AFTER the post-learn mutations, then crash: recovery
	// sees only this snapshot (no WAL tail with the learn in it).
	if _, err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(svc)

	recovered := restoreService(t, dir, nil, store.Options{Fsync: store.FsyncAlways, SnapshotEvery: -1})
	defer recovered.Close()
	me, ml, mr, mk := serviceFingerprint(t, mirror)
	de, dl, dr, dk := serviceFingerprint(t, recovered)
	if me != de || ml != dl {
		t.Error("graphs diverged after recovery")
	}
	if mr != dr {
		t.Errorf("rules diverged: recovery relearned over post-learn state\nmirror:  %s\ndurable: %s", mr, dr)
	}
	if mk != dk {
		t.Errorf("link results diverged:\nmirror:  %s\ndurable: %s", mk, dk)
	}
}

// TestRestoreAdoptsPersistedLinker proves a recovered deployment keeps
// its comparator config when the caller supplies none.
func TestRestoreAdoptsPersistedLinker(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever}
	svc := restoreService(t, dir, corpusSeed(t), sopts)
	want := call(t, svc.Handler(), http.MethodPost, "/v1/link", map[string]any{"top_k": 2}, nil).Body.String()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	// No DefaultLinker in the options: it must come from the snapshot.
	svc2, err := Restore(st, rec, nil, Options{Learner: datalink.LearnerConfig{SupportThreshold: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	got := call(t, svc2.Handler(), http.MethodPost, "/v1/link", map[string]any{"top_k": 2}, nil)
	if got.Code != http.StatusOK {
		t.Fatalf("link after restore without linker config: %d %s", got.Code, got.Body.String())
	}
	if got.Body.String() != want {
		t.Errorf("adopted linker answers differently:\nwant %s\ngot  %s", want, got.Body.String())
	}
}

// TestLinkerMetaCompilesBack: every linker config linkerToMeta persists
// compiles back, as recovery compiles it, to the same comparators, and
// one that would not, such as an empty external property, a zero weight
// or a zero local property, is not persisted.
func TestLinkerMetaCompilesBack(t *testing.T) {
	pn := datalink.NewIRI(pnProp)
	for i, c := range []struct {
		cmp       datalink.Comparator
		persisted bool
	}{
		{datalink.Comparator{ExternalProperty: pn, LocalProperty: pn, Measure: datalink.Levenshtein, Weight: 1}, true},
		{datalink.Comparator{ExternalProperty: pn, LocalProperty: datalink.NewIRI(labelProp), Measure: datalink.JaroWinkler, Weight: 2.5}, true},
		{datalink.Comparator{ExternalProperty: datalink.NewIRI(""), LocalProperty: pn, Measure: datalink.Levenshtein, Weight: 1}, false},
		{datalink.Comparator{ExternalProperty: pn, LocalProperty: pn, Measure: datalink.Levenshtein}, false},
		{datalink.Comparator{ExternalProperty: pn, Measure: datalink.Levenshtein, Weight: 1}, false},
	} {
		cfg := datalink.LinkerConfig{Comparators: []datalink.Comparator{c.cmp}, Threshold: 0.5}
		m := linkerToMeta(cfg)
		if (m != nil) != c.persisted {
			t.Errorf("config %d: persisted %v, want %v", i, m != nil, c.persisted)
			continue
		}
		if m == nil {
			continue
		}
		if comps, err := compileComparators(m.Comparators); err != nil || !reflect.DeepEqual(comps, cfg.Comparators) {
			t.Errorf("config %d compiles back to %+v, %v", i, comps, err)
		}
	}
}

// TestRestoreAdoptsPersistedLearner proves a restart with default flags
// relearns with the learner config the model was built with, not this
// process's defaults — otherwise the recovered rules silently differ.
func TestRestoreAdoptsPersistedLearner(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever}
	svc := restoreService(t, dir, corpusSeed(t), sopts) // th = 0.01 via durableOpts
	wantRules := call(t, svc.Handler(), http.MethodGet, "/v1/rules", nil, nil).Body.String()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	// Completely empty options: learner AND linker must come from the
	// snapshot.
	svc2, err := Restore(st, rec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	gotRules := call(t, svc2.Handler(), http.MethodGet, "/v1/rules", nil, nil).Body.String()
	if gotRules != wantRules {
		t.Errorf("recovered rules differ under default learner config:\nwant %s\ngot  %s", wantRules, gotRules)
	}
}

// TestRestoreServesCheckpointedModel: recovery installs the model the
// snapshot holds whatever learner config the caller passes, one that
// learns a different model or one that learns none, so the restored
// service answers as the dead one did. Only a later learn uses the
// caller's config, and it fails or succeeds as on a live service.
func TestRestoreServesCheckpointedModel(t *testing.T) {
	sopts := store.Options{Fsync: store.FsyncNever}
	for _, th := range []float64{0.3, 1.5} {
		t.Run(fmt.Sprint(th), func(t *testing.T) {
			dir := t.TempDir()
			svc := restoreService(t, dir, corpusSeed(t), sopts) // learns at th 0.01
			// An external upsert in the WAL tail, replayed on recovery.
			if code := applyMutation(t, svc.Handler(), mutation{path: "/v1/items/upsert", body: map[string]any{
				"side":  "external",
				"items": []map[string]any{{"id": "http://ex.org/e/r3", "properties": map[string][]string{pnProp: {"RES-0003-Q"}}}},
			}}); code != http.StatusOK {
				t.Fatalf("upsert: %d", code)
			}
			_, _, wantRules, wantLinks := serviceFingerprint(t, svc)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}

			opts := durableOpts()
			opts.Learner = datalink.LearnerConfig{SupportThreshold: th}
			seed := corpusSeed(t)
			live := New(seed.External, seed.Local, seed.Ontology, opts)
			liveLearn := call(t, live.Handler(), http.MethodPost, "/v1/learn", learnBody(10), nil)
			if liveLearn.Code == http.StatusOK {
				if _, _, rules, _ := serviceFingerprint(t, live); rules == wantRules {
					t.Fatalf("th %v learns the served model from the same links; the test would show nothing", th)
				}
			}

			st, rec, err := store.Open(dir, sopts)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(st, rec, nil, opts)
			if err != nil {
				t.Fatalf("restoring with th %v: %v", th, err)
			}
			defer restored.Close()
			_, _, gotRules, gotLinks := serviceFingerprint(t, restored)
			if gotRules != wantRules {
				t.Errorf("restored rules differ from the checkpointed ones:\nwant %s\ngot  %s", wantRules, gotRules)
			}
			if gotLinks != wantLinks {
				t.Errorf("restored answers differ:\nwant %s\ngot  %s", wantLinks, gotLinks)
			}
			got := call(t, restored.Handler(), http.MethodPost, "/v1/learn", learnBody(10), nil)
			if got.Code != liveLearn.Code || errorOf(t, got) != errorOf(t, liveLearn) {
				t.Errorf("a learn after recovery answers %d %s, a live service %d %s",
					got.Code, got.Body, liveLearn.Code, liveLearn.Body)
			}
		})
	}
}

// errorOf returns the error message of a JSON error response, or ""
// for a success.
func errorOf(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code == http.StatusOK {
		return ""
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error response %q: %v", rec.Body, err)
	}
	return e.Error
}

// TestRestoreRefusesSnapshotWithoutModel: a snapshot whose meta says a
// model was learned but that has no model section, the shape of every
// learned snapshot written before checkpoints kept the model, fails
// recovery with an error that names the missing section. It is never
// booted without rules.
func TestRestoreRefusesSnapshotWithoutModel(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever}
	st, _, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	seed := corpusSeed(t)
	boundary, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&store.Snapshot{
		Seq: boundary, External: seed.External, Local: seed.Local, Ontology: seed.Ontology.ToGraph(),
		Links: seed.Training,
		Meta:  store.Meta{Learned: true, Linker: linkerToMeta(durableOpts().DefaultLinker), Learner: learnerToMeta(durableOpts().Learner)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatalf("opening a store whose snapshot has no model section: %v", err)
	}
	defer st.Close()
	if svc, err := Restore(st, rec, nil, durableOpts()); err == nil {
		svc.Close()
		t.Fatal("restored a learned snapshot that has no model section")
	} else if !strings.Contains(err.Error(), "model section") {
		t.Errorf("the error does not name the missing model section: %v", err)
	}
}

// TestRestoredViewHoldsLearnedModel: the view published after a live
// learn and the view published after a restart hold equal rules and
// stats, and neither keeps the learner's training index.
func TestRestoredViewHoldsLearnedModel(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1}
	seed := corpusSeed(t)
	seed.Training = nil
	svc := restoreService(t, dir, seed, sopts)
	if rec := call(t, svc.Handler(), http.MethodPost, "/v1/learn", learnBody(10), nil); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	learned := svc.state.Load().view.Model()
	if _, err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	restored := restoreService(t, dir, nil, sopts)
	defer restored.Close()
	got := restored.state.Load().view.Model()
	if learned.Rules.Len() == 0 || learned.Stats.TSSize != 20 {
		t.Fatalf("the live learn served %d rules from %d links", learned.Rules.Len(), learned.Stats.TSSize)
	}
	if !slices.Equal(got.Rules.Rules, learned.Rules.Rules) {
		t.Errorf("restored rules differ:\nlearned  %v\nrestored %v", learned.Rules.Rules, got.Rules.Rules)
	}
	if got.Stats != learned.Stats {
		t.Errorf("restored stats differ: learned %+v, restored %+v", learned.Stats, got.Stats)
	}
	for name, m := range map[string]*datalink.Model{"learned": learned, "restored": got} {
		if n := m.TrainingSize(); n != 0 {
			t.Errorf("the %s view's model keeps a training index of %d links", name, n)
		}
	}
}

// TestAdminSnapshotEndpoint forces checkpoints over HTTP and reads the
// durability stats back from /v1/status.
func TestAdminSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	svc := restoreService(t, dir, corpusSeed(t), store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1})
	defer svc.Close()
	h := svc.Handler()

	applyMutation(t, h, mutation{path: "/v1/items/remove", body: map[string]any{
		"side": "external", "ids": []string{"http://ex.org/e/r0"},
	}})

	var snapResp snapshotResponse
	rr := call(t, h, http.MethodPost, "/v1/admin/snapshot", nil, &snapResp)
	if rr.Code != http.StatusOK {
		t.Fatalf("admin snapshot: %d %s", rr.Code, rr.Body.String())
	}
	if snapResp.SnapshotSeq == 0 {
		t.Errorf("snapshot covered seq 0 after a mutation: %+v", snapResp)
	}

	var status statusResponse
	call(t, h, http.MethodGet, "/v1/status", nil, &status)
	if status.Durability == nil {
		t.Fatal("durable service reports no durability stats")
	}
	if status.Durability.WALRecords != 0 {
		t.Errorf("wal_records = %d right after checkpoint", status.Durability.WALRecords)
	}
	if status.Durability.LastSnapshotSeq != snapResp.SnapshotSeq {
		t.Errorf("status snapshot seq %d != admin response %d",
			status.Durability.LastSnapshotSeq, snapResp.SnapshotSeq)
	}
	if status.Durability.Dir != dir {
		t.Errorf("durability dir %q, want %q", status.Durability.Dir, dir)
	}
}

// TestAdminSnapshotEphemeral409 pins the conflict answer for services
// without a store.
func TestAdminSnapshotEphemeral409(t *testing.T) {
	svc := corpusService(t)
	rr := call(t, svc.Handler(), http.MethodPost, "/v1/admin/snapshot", nil, nil)
	if rr.Code != http.StatusConflict {
		t.Fatalf("admin snapshot on ephemeral service: %d, want 409", rr.Code)
	}
	var status statusResponse
	call(t, svc.Handler(), http.MethodGet, "/v1/status", nil, &status)
	if status.Durability != nil {
		t.Error("ephemeral service reports durability stats")
	}
}

// TestOversizedBodyRejected413 pins the MaxBytesReader behavior: a body
// one byte over the fixed 8 MiB cap answers 413 without reading it all
// and changes nothing, and a body at the cap is read.
func TestOversizedBodyRejected413(t *testing.T) {
	seed := corpusSeed(t)
	svc := New(seed.External, seed.Local, seed.Ontology, durableOpts())
	h := svc.Handler()

	// upsert is a one-item upsert body of exactly n bytes.
	upsert := func(n int) string {
		body := func(pad int) []byte {
			b, err := json.Marshal(map[string]any{
				"side": "external",
				"items": []map[string]any{{
					"id":         "http://ex.org/e/huge",
					"properties": map[string][]string{pnProp: {strings.Repeat("x", pad)}},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		b := body(n - len(body(0)))
		if len(b) != n {
			t.Fatalf("built a %d-byte body, want %d", len(b), n)
		}
		return string(b)
	}
	rr := rawCall(t, h, "/v1/items/upsert", "", upsert(8<<20+1), nil)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413 (%.200s)", rr.Code, rr.Body.String())
	}
	// Nothing may have been applied.
	var status statusResponse
	call(t, h, http.MethodGet, "/v1/status", nil, &status)
	if status.ExternalVersion != seed.External.Version() {
		t.Error("oversized request mutated the graph")
	}
	if rr := rawCall(t, h, "/v1/items/upsert", "", upsert(8<<20), nil); rr.Code != http.StatusOK {
		t.Fatalf("body at the cap: %d, want 200 (%.200s)", rr.Code, rr.Body.String())
	}
}

// TestLearnLinksRejectsNonResourceEndpoints: a training link with a
// literal or zero endpoint is an error before anything is logged, so
// the WAL gains no record that a replay could read differently, and the
// training set keeps its links.
func TestLearnLinksRejectsNonResourceEndpoints(t *testing.T) {
	svc := restoreService(t, t.TempDir(), corpusSeed(t), store.Options{Fsync: store.FsyncNever})
	defer svc.Close()
	seq, links := svc.Store().Stats().Seq, len(svc.links)
	ext, loc := datalink.NewIRI("http://ex.org/e/r11"), datalink.NewIRI("http://ex.org/l/r11")
	for _, bad := range []datalink.Link{
		{External: datalink.NewLiteral(ext.Value), Local: loc},
		{External: ext, Local: datalink.NewLiteral(loc.Value)},
		{External: datalink.Term{}, Local: loc},
		{External: ext, Local: datalink.Term{}},
	} {
		if err := svc.LearnLinks([]datalink.Link{{External: ext, Local: loc}, bad}); err == nil {
			t.Errorf("learned the link %v", bad)
		}
	}
	if got := svc.Store().Stats().Seq; got != seq {
		t.Errorf("the rejected learns logged %d records", got-seq)
	}
	if len(svc.links) != links {
		t.Errorf("the training set has %d links, want %d", len(svc.links), links)
	}
}

// TestAutomaticCheckpoint proves SnapshotEvery triggers checkpoints from
// the mutation path without any admin call.
func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc := restoreService(t, dir, corpusSeed(t), store.Options{Fsync: store.FsyncNever, SnapshotEvery: 3})
	defer svc.Close()
	h := svc.Handler()
	for i := 0; i < 12; i++ {
		code := applyMutation(t, h, mutation{path: "/v1/items/upsert", body: map[string]any{
			"side": "external",
			"items": []map[string]any{{
				"id":         fmt.Sprintf("http://ex.org/e/auto%d", i),
				"properties": map[string][]string{pnProp: {fmt.Sprintf("RES-%04d-A", i)}},
			}},
		}})
		if code != http.StatusOK {
			t.Fatalf("upsert %d: %d", i, code)
		}
	}
	// Checkpoints run in the background; Close waits for the in-flight
	// one, which is exactly the synchronization a shutdown needs too.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	stats := svc.Store().Stats()
	if stats.Checkpoints < 2 {
		t.Errorf("expected automatic checkpoints, got stats %+v", stats)
	}
	if got := svc.lastCheckpointError(); got != "" {
		t.Errorf("checkpoint error: %s", got)
	}
}

// TestCheckpointKeepsLocalEncoding: a checkpoint after external writes
// only copies the local graph's remembered encoding instead of encoding
// it again, so the published local view still carries that encoding
// afterwards: encoding it once more allocates nothing into a buffer
// large enough, and writes what a fresh encode of the graph writes. The
// first round runs in the process that wrote the baseline checkpoint,
// the second after a restart, where the encoding comes from decoding the
// snapshot file.
func TestCheckpointKeepsLocalEncoding(t *testing.T) {
	dir := t.TempDir()
	sopts := store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1}
	svc := restoreService(t, dir, corpusSeed(t), sopts)
	for round := 0; round < 2; round++ {
		applyMutation(t, svc.Handler(), mutation{path: "/v1/items/upsert", body: map[string]any{
			"side": "external", "items": []map[string]any{{
				"id": "http://ex.org/e/r0", "properties": map[string][]string{pnProp: {fmt.Sprintf("RES-0000-W%d", round)}},
			}},
		}})
		if _, err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		sl := svc.state.Load().sl
		want := rdf.AppendSnapshot(nil, sl.Clone())
		dst := make([]byte, 0, len(want))
		if allocs := testing.AllocsPerRun(10, func() { dst = rdf.AppendSnapshot(dst[:0], sl) }); allocs != 0 {
			t.Errorf("round %d: encoding the published local graph allocates %v times, want 0", round, allocs)
		}
		if !bytes.Equal(dst, want) {
			t.Errorf("round %d: the local graph encodes to %d bytes, a fresh encode to %d", round, len(dst), len(want))
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		svc = restoreService(t, dir, nil, sopts)
	}
	svc.Close()
}
