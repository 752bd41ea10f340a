package service

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	datalink "repro"
	"repro/internal/store"
)

// restoreTail is how many external upserts BenchmarkRestore's store
// holds in its WAL tail, as many as the repository benchmark writes
// before each restart.
const restoreTail = 180

// restoreStore builds the durable store BenchmarkRestore recovers, in
// dir: the paper-scale corpus at seed 42, a model learned from 70% of
// its training links (shuffled at seed 42) and checkpointed with it,
// then a WAL tail of restoreTail upserts that change the part numbers
// of held-out external items.
func restoreStore(b *testing.B, dir string, sopts store.Options) {
	ds, err := datalink.GenerateCorpus(datalink.PaperCorpusConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	links := append([]datalink.Link(nil), ds.Training.Links...)
	rand.New(rand.NewSource(42)).Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	cut := len(links) * 7 / 10
	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		b.Fatal(err)
	}
	seed := &Seed{External: ds.External, Local: ds.Local, Ontology: ds.Ontology, Training: links[:cut]}
	svc, err := Restore(st, rec, seed, Options{DefaultLinker: datalink.DefaultLinkingConfig()})
	if err != nil {
		b.Fatal(err)
	}
	h := svc.Handler()
	for _, l := range links[cut : cut+restoreTail] {
		props := map[string][]string{}
		for _, tr := range ds.External.Find(l.External, datalink.Term{}, datalink.Term{}) {
			v := tr.O.Value
			if tr.P == datalink.PartNumberProperty {
				v += "-R2"
			}
			props[tr.P.Value] = append(props[tr.P.Value], v)
		}
		body := map[string]any{"side": "external", "items": []map[string]any{{"id": l.External.Value, "properties": props}}}
		if rr := call(b, h, http.MethodPost, "/v1/items/upsert", body, nil); rr.Code != http.StatusOK {
			b.Fatalf("upsert: %d %s", rr.Code, rr.Body)
		}
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
}

// copyStore copies the flat store directory src into a new dst.
func copyStore(b *testing.B, src, dst string) {
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore times a restart in process: store.Open and Restore
// over a copy of restoreStore's directory, which decode the snapshot,
// install its model with the catalog indexes, replay the WAL tail and
// write the post-recovery checkpoint. Copying the directory and closing
// the service are outside the timer.
func BenchmarkRestore(b *testing.B) {
	tmp := b.TempDir()
	base := filepath.Join(tmp, "base")
	sopts := store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1}
	restoreStore(b, base, sopts)
	opts := Options{DefaultLinker: datalink.DefaultLinkingConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(tmp, "run")
		copyStore(b, base, dir)
		b.StartTimer()
		st, rec, err := store.Open(dir, sopts)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := Restore(st, rec, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCheckpoint times a checkpoint after a write to the external
// graph only, on a service restored from restoreStore's directory: each
// op upserts one external item, then calls Checkpoint, which rotates
// the WAL, encodes the snapshot, writes and syncs the file and prunes
// the files it supersedes.
func BenchmarkCheckpoint(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	sopts := store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1}
	restoreStore(b, dir, sopts)
	st, rec, err := store.Open(dir, sopts)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := Restore(st, rec, nil, Options{DefaultLinker: datalink.DefaultLinkingConfig()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := map[string]any{"side": "external", "items": []map[string]any{{
			"id":         "http://provider.example/item/checkpoint",
			"properties": map[string][]string{datalink.PartNumberProperty.Value: {fmt.Sprintf("CKPT-%d", i)}},
		}}}
		if rr := call(b, h, http.MethodPost, "/v1/items/upsert", body, nil); rr.Code != http.StatusOK {
			b.Fatalf("upsert: %d %s", rr.Code, rr.Body)
		}
		if _, err := svc.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
