package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"
)

// withCatalogChurn inserts, after about every fourth mutation, an upsert
// that moves a catalog item to the other class, and after about every
// tenth, the removal of eight catalog items, so that the IDs naming no
// typed item now and then pass a quarter of the table.
func withCatalogChurn(rng *rand.Rand, muts []mutation) []mutation {
	kinds := []struct {
		prefix, suffix, other string
	}{{"r", "RES", clsCap}, {"c", "CAP", clsRes}}
	var out []mutation
	for _, m := range muts {
		out = append(out, m)
		if rng.Intn(4) == 0 {
			k, i := kinds[rng.Intn(2)], rng.Intn(26)
			out = append(out, mutation{path: "/v1/items/upsert", body: map[string]any{
				"side": "local",
				"items": []map[string]any{{
					"id":         fmt.Sprintf("http://ex.org/l/%s%d", k.prefix, i),
					"properties": map[string][]string{pnProp: {fmt.Sprintf("%s-%04d-X", k.suffix, i)}},
					"classes":    []string{k.other},
				}},
			}})
		}
		if rng.Intn(10) == 0 {
			var ids []string
			for n := 0; n < 8; n++ {
				ids = append(ids, fmt.Sprintf("http://ex.org/l/%s%d", kinds[rng.Intn(2)].prefix, rng.Intn(26)))
			}
			out = append(out, mutation{path: "/v1/items/remove", body: map[string]any{"side": "local", "ids": ids}})
		}
	}
	return out
}

// TestRelearnKeepsCatalogIndexes runs seeded scripts of upserts,
// removes, class changes and learns through Handler (randomMutations
// with withCatalogChurn). After every
// successful learn the service must answer like a fresh service over
// clones of the live graphs that learns the same links, and it must
// have kept its instance index unless more than a quarter of the IDs
// named no typed catalog item, in which case it must have rebuilt it.
func TestRelearnKeepsCatalogIndexes(t *testing.T) {
	kept, rebuilt := 0, 0
	for round := 0; round < 4; round++ {
		rng := rand.New(rand.NewSource(int64(2000 + round)))
		seed := corpusSeed(t)
		s := New(seed.External, seed.Local, seed.Ontology, durableOpts())
		if err := s.LearnLinks(seed.Training); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for i, m := range withCatalogChurn(rng, randomMutations(rng, 80)) {
			ix := s.pipe.Instances
			n := ix.IDs().Len()
			compacts := n-ix.Total() > n/4
			if code := applyMutation(t, h, m); code != http.StatusOK || m.path != "/v1/learn" {
				continue
			}
			if compacts {
				rebuilt++
			} else {
				kept++
			}
			if (s.pipe.Instances == ix) == compacts {
				t.Fatalf("round %d, mutation %d: compaction due=%v, but instance index kept=%v",
					round, i, compacts, s.pipe.Instances == ix)
			}
			fresh := New(s.se.Clone(), s.sl.Clone(), s.ol, durableOpts())
			if err := fresh.LearnLinks(s.links); err != nil {
				t.Fatal(err)
			}
			le, ll, lr, lk := serviceFingerprint(t, s)
			fe, fl, fr, fk := serviceFingerprint(t, fresh)
			if le != fe || ll != fl {
				t.Fatalf("round %d, mutation %d: the cloned graphs differ", round, i)
			}
			if lr != fr {
				t.Fatalf("round %d, mutation %d: rules differ:\nlive:  %s\nfresh: %s", round, i, lr, fr)
			}
			if lk != fk {
				t.Fatalf("round %d, mutation %d: links differ:\nlive:  %s\nfresh: %s", round, i, lk, fk)
			}
		}
	}
	t.Logf("%d learns kept the indexes, %d rebuilt them", kept, rebuilt)
	if kept == 0 || rebuilt == 0 {
		t.Fatalf("the scripts must both keep (%d) and rebuild (%d) the indexes", kept, rebuilt)
	}
}
