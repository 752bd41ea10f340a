package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/store"
)

// storeFixture is a durable store written by the build of commit
// f9f4389, the last one that logged single upserts and removals as
// records of their own, with durableOpts. Its store/ directory holds the
// baseline snapshot of corpusSeed, a learn (one of its links has a blank
// external endpoint) and the checkpoint after it, then a WAL tail that
// was never checkpointed: a plain upsert, a plain remove, a batch and a
// learn record, in that order. answers.json is what that build answered
// after recovering the store, and recovered.snap the snapshot its
// recovery checkpoint wrote.
const storeFixture = "testdata/store-f9f4389"

// fixtureAnswers is the form of answers.json: the graphs as SHA-256 of
// their N-Triples text, the /v1/rules body, the training links in order,
// and the top-3 /v1/link body for LinkItems.
type fixtureAnswers struct {
	ExternalSHA256 string   `json:"external_sha256"`
	LocalSHA256    string   `json:"local_sha256"`
	Rules          string   `json:"rules"`
	TrainingLinks  []string `json:"training_links"`
	LinkItems      []string `json:"link_items"`
	Link           string   `json:"link"`
}

// walOps returns the op byte of every record in a WAL segment file.
func walOps(t *testing.T, raw []byte) []store.Op {
	t.Helper()
	var ops []store.Op
	for off := len("LNKWAL1\n"); off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		payload := raw[off+8 : off+8+n]
		_, sn := binary.Uvarint(payload)
		ops = append(ops, store.Op(payload[sn]))
		off += 8 + n
	}
	return ops
}

// TestRecoverEarlierBuildStore: a store written before item writes
// became batch records, with plain records in its WAL tail, recovers to
// the answers of the build that wrote it, and the checkpoint recovery
// writes is byte for byte the snapshot that build wrote.
func TestRecoverEarlierBuildStore(t *testing.T) {
	src := filepath.Join(storeFixture, "store")
	wal, err := os.ReadFile(filepath.Join(src, "wal-0000000000000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := []store.Op{store.OpUpsert, store.OpRemove, store.OpBatch, store.OpLearn}
	if got := walOps(t, wal); !slices.Equal(got, want) {
		t.Fatalf("the fixture's WAL tail holds ops %v, want %v", got, want)
	}

	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc := restoreService(t, dir, nil, store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1})
	defer svc.Close()

	raw, err := os.ReadFile(filepath.Join(storeFixture, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ans fixtureAnswers
	if err := json.Unmarshal(raw, &ans); err != nil {
		t.Fatal(err)
	}
	ext, loc, rules, _ := serviceFingerprint(t, svc)
	for _, g := range []struct{ name, text, want string }{
		{"external", ext, ans.ExternalSHA256}, {"local", loc, ans.LocalSHA256},
	} {
		if sum := sha256.Sum256([]byte(g.text)); hex.EncodeToString(sum[:]) != g.want {
			t.Errorf("the recovered %s graph differs from the fixture's", g.name)
		}
	}
	if rules != ans.Rules {
		t.Errorf("rules:\ngot  %s\nwant %s", rules, ans.Rules)
	}
	var links []string
	for _, l := range svc.links {
		links = append(links, l.External.String()+" "+l.Local.String())
	}
	if !slices.Equal(links, ans.TrainingLinks) {
		t.Errorf("training links:\ngot  %q\nwant %q", links, ans.TrainingLinks)
	}
	lr := call(t, svc.Handler(), http.MethodPost, "/v1/link", map[string]any{"items": ans.LinkItems, "top_k": 3}, nil)
	if lr.Body.String() != ans.Link {
		t.Errorf("link answers:\ngot  %s\nwant %s", lr.Body, ans.Link)
	}

	got, err := os.ReadFile(filepath.Join(dir, "snap-0000000000000005.snap"))
	if err != nil {
		t.Fatalf("the recovery checkpoint: %v", err)
	}
	wantSnap, err := os.ReadFile(filepath.Join(storeFixture, "recovered.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantSnap) {
		t.Errorf("the recovery checkpoint (%d bytes) differs from the fixture's (%d bytes)", len(got), len(wantSnap))
	}
}
