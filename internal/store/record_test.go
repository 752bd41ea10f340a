package store

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// hugePropertyCountBody is a 9-byte upsert body: one external item "x"
// whose property count claims 50,000,000 entries, and then nothing.
func hugePropertyCountBody() []byte {
	b := []byte{byte(OpUpsert), byte(External), 1, 1, 'x'}
	return binary.AppendUvarint(b, 50_000_000)
}

// TestRecordDecodeBoundsPropertyMapHint: a property count read from disk
// only sizes the map up to the same cap as the other counts, so a
// truncated body cannot make the decoder allocate gigabytes before it
// reports the truncation.
func TestRecordDecodeBoundsPropertyMapHint(t *testing.T) {
	body := hugePropertyCountBody()
	if len(body) != 9 {
		t.Fatalf("body is %d bytes, want 9", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := new(Record).decodeBody(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a body whose properties are missing")
	}
	const bound = 1 << 20
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Errorf("decoding %d bytes allocated %d bytes, want <= %d", len(body), n, bound)
	}
}

// FuzzRecordBody feeds arbitrary bytes to the WAL record decoder. It
// must never panic, and a body it accepts must re-encode and decode to
// an equal record. The seeds include the plain upsert and remove records
// of earlier builds, which re-encode as batches.
func FuzzRecordBody(f *testing.F) {
	for _, r := range []*Record{upsertRec(3), removeRec("http://ex.org/a", "http://ex.org/b"), learnRec(2), batchRec(2)} {
		body, err := r.encodeBody()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(plainBody(upsertRec(3).Batch[0]))
	f.Add(plainBody(removeRec("http://ex.org/a", "http://ex.org/b").Batch[0]))
	f.Add(hugePropertyCountBody())
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Record
		if err := r.decodeBody(body); err != nil {
			return
		}
		again, err := r.encodeBody()
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		var r2 Record
		if err := r2.decodeBody(again); err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the record:\nfirst  %+v\nsecond %+v", r, r2)
		}
	})
}
