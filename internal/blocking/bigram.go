package blocking

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/similarity"
)

// Bigram implements bi-gram indexing (Baxter, Christen & Churches 2003):
// each record's key is converted to its sorted bi-gram list, sub-lists of
// length ceil(threshold × n) are generated by deleting bi-grams, and each
// sub-list becomes an inverted-index key. Records sharing any sub-list
// key land in the same block. Lower thresholds generate more sub-lists,
// i.e. fuzzier blocking.
type Bigram struct {
	// Threshold in (0, 1]; 0 means 0.8 (the conventional default).
	Threshold float64
	// MaxSublists caps the per-record sub-list expansion, which is
	// combinatorial in the number of deletions; 0 means 128.
	MaxSublists int
	// Q is the gram size; 0 means 2 (bi-grams proper).
	Q int
	// Workers fans the per-record sub-list computation (the combinatorial
	// part) out across goroutines; 0 means all cores, 1 forces serial.
	// The candidate set is identical for every worker count.
	Workers int
}

func (bg Bigram) params() (threshold float64, limit int, q int) {
	threshold = bg.Threshold
	if threshold <= 0 || threshold > 1 {
		threshold = 0.8
	}
	limit = bg.MaxSublists
	if limit <= 0 {
		limit = 128
	}
	q = bg.Q
	if q <= 0 {
		q = 2
	}
	return threshold, limit, q
}

// indexKeys returns the inverted-index keys for one record key.
func (bg Bigram) indexKeys(key string) []string {
	threshold, maxSub, q := bg.params()
	grams := similarity.QGrams(key, q)
	if len(grams) == 0 {
		return nil
	}
	// Sub-list length l = ceil(threshold * n); we delete n-l grams.
	n := len(grams)
	l := int(float64(n)*threshold + 0.999999)
	if l < 1 {
		l = 1
	}
	deletions := n - l
	keys := make([]string, 0, 8)
	seen := map[string]struct{}{}
	var gen func(start, remaining int, current []string)
	gen = func(start, remaining int, current []string) {
		if len(keys) >= maxSub {
			return
		}
		if remaining == 0 {
			k := joinGrams(current, grams[start:])
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
			return
		}
		if start >= len(grams) {
			return
		}
		// Either delete grams[start] or keep it.
		gen(start+1, remaining-1, current)
		gen(start+1, remaining, append(current, grams[start]))
	}
	gen(0, deletions, make([]string, 0, l))
	sort.Strings(keys)
	return keys
}

func joinGrams(head []string, tail []string) string {
	total := 0
	for _, g := range head {
		total += len(g) + 1
	}
	for _, g := range tail {
		total += len(g) + 1
	}
	b := make([]byte, 0, total)
	for _, g := range head {
		b = append(b, g...)
		b = append(b, 0x1f)
	}
	for _, g := range tail {
		b = append(b, g...)
		b = append(b, 0x1f)
	}
	return string(b)
}

// recordKeys is one record's derived inverted-index keys.
type recordKeys struct {
	id   string
	keys []string
}

// allIndexKeys computes every record's sub-list keys, fanned out across
// bg.Workers goroutines (the key expansion dominates the method's cost).
// Output order is input order regardless of the worker count. A
// cancelled ctx stops mid-computation with ctx.Err().
func (bg Bigram) allIndexKeys(ctx context.Context, records []Record) ([]recordKeys, error) {
	return par.MapChunks(ctx, bg.Workers, 0, records, func(r Record) (recordKeys, bool) {
		return recordKeys{id: r.ID, keys: bg.indexKeys(r.Key)}, true
	})
}

// probeBatch bounds how many external records' key expansions are alive
// at once during the probe pass: large enough to feed every worker,
// small enough that the transient key storage stays O(batch), not
// O(|external|).
const probeBatch = 4096

// PairsCtx is Pairs with cooperative cancellation: a cancelled ctx stops
// the key expansion between chunks and returns ctx.Err() with no pairs.
// The local records are indexed by key, then the external records probe
// the index one batch at a time.
func (bg Bigram) PairsCtx(ctx context.Context, external, local []Record) ([]Pair, error) {
	index := map[string][]string{}
	locKeys, err := bg.allIndexKeys(ctx, local)
	if err != nil {
		return nil, err
	}
	for _, rk := range locKeys {
		for _, k := range rk.keys {
			index[k] = append(index[k], rk.id)
		}
	}
	ps := pairSet{}
	for lo := 0; lo < len(external); lo += probeBatch {
		hi := lo + probeBatch
		if hi > len(external) {
			hi = len(external)
		}
		extKeys, err := bg.allIndexKeys(ctx, external[lo:hi])
		if err != nil {
			return nil, err
		}
		for _, rk := range extKeys {
			for _, k := range rk.keys {
				for _, lid := range index[k] {
					ps.add(rk.id, lid)
				}
			}
		}
	}
	return ps.slice(), nil
}

// Pairs implements Method.
func (bg Bigram) Pairs(external, local []Record) []Pair {
	out, _ := bg.PairsCtx(context.Background(), external, local)
	return out
}

// Name implements Method.
func (bg Bigram) Name() string {
	threshold, _, q := bg.params()
	return fmt.Sprintf("bigram(q=%d,t=%.2f)", q, threshold)
}
