package blocking

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/similarity"
)

// Canopy implements canopy clustering (McCallum, Nigam & Ungar 2000) as
// a candidate-generation method: records are grouped into overlapping
// canopies using a cheap q-gram similarity; records inside the loose
// threshold of a canopy center join the canopy, and records inside the
// tight threshold stop being centers themselves. Cross-source pairs
// inside each canopy become candidates.
//
// The classic algorithm picks random centers; this implementation scans
// records in deterministic ID order so runs are reproducible.
type Canopy struct {
	// Loose is the canopy-membership threshold; 0 means 0.4.
	Loose float64
	// Tight is the center-removal threshold (must be >= Loose to have
	// effect); 0 means 0.7.
	Tight float64
	// Q is the gram size of the cheap similarity; 0 means 2.
	Q int
	// Workers fans the per-record gram-set computation out across
	// goroutines; 0 means all cores, 1 forces serial. The canopy scan
	// itself stays sequential (it is stateful in the set of active
	// centers), so results are identical for every worker count.
	Workers int
}

func (c Canopy) params() (loose, tight float64, q int) {
	loose, tight, q = c.Loose, c.Tight, c.Q
	if loose == 0 {
		loose = 0.4
	}
	if tight == 0 {
		tight = 0.7
	}
	if q == 0 {
		q = 2
	}
	return loose, tight, q
}

// canopyEntry is a record with its gram set, tagged by source.
type canopyEntry struct {
	id       string
	external bool
	grams    map[string]struct{}
}

// PairsCtx is Pairs with cooperative cancellation: a cancelled ctx stops
// the gram-set fan-out and the center scan, returning ctx.Err() with no
// pairs.
func (c Canopy) PairsCtx(ctx context.Context, external, local []Record) ([]Pair, error) {
	loose, tight, q := c.params()

	entryFor := func(ext bool) func(Record) (canopyEntry, bool) {
		return func(r Record) (canopyEntry, bool) {
			return canopyEntry{id: r.ID, external: ext, grams: gramSet(r.Key, q)}, true
		}
	}
	extEntries, err := par.MapChunks(ctx, c.Workers, 0, external, entryFor(true))
	if err != nil {
		return nil, err
	}
	locEntries, err := par.MapChunks(ctx, c.Workers, 0, local, entryFor(false))
	if err != nil {
		return nil, err
	}
	entries := make([]canopyEntry, 0, len(external)+len(local))
	entries = append(entries, extEntries...)
	entries = append(entries, locEntries...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].external != entries[j].external {
			return entries[i].external
		}
		return entries[i].id < entries[j].id
	})

	// Inverted index gram -> entry indexes, so each center only scores
	// entries sharing at least one gram.
	index := map[string][]int{}
	for i, e := range entries {
		for g := range e.grams {
			index[g] = append(index[g], i)
		}
	}

	active := make([]bool, len(entries))
	for i := range active {
		active[i] = true
	}
	// Overlapping canopies revisit pairs; the set deduplicates them.
	ps := pairSet{}
	for i, center := range entries {
		if !active[i] || len(center.grams) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Collect candidates sharing grams with the center.
		seen := map[int]struct{}{}
		var canopy []int
		for g := range center.grams {
			for _, j := range index[g] {
				if _, dup := seen[j]; dup {
					continue
				}
				seen[j] = struct{}{}
				s := diceOverlap(center.grams, entries[j].grams)
				if s >= loose {
					canopy = append(canopy, j)
					if s >= tight && j != i {
						active[j] = false // close enough; never a center
					}
				}
			}
		}
		active[i] = false
		// Cross-source pairs within the canopy (center included).
		for _, a := range canopy {
			for _, b := range canopy {
				if ea, eb := entries[a], entries[b]; ea.external && !eb.external {
					ps.add(ea.id, eb.id)
				}
			}
		}
	}
	return ps.slice(), nil
}

// Pairs implements Method.
func (c Canopy) Pairs(external, local []Record) []Pair {
	out, _ := c.PairsCtx(context.Background(), external, local)
	return out
}

// Name implements Method.
func (c Canopy) Name() string {
	loose, tight, q := c.params()
	return fmt.Sprintf("canopy(q=%d,loose=%.2f,tight=%.2f)", q, loose, tight)
}

func gramSet(key string, q int) map[string]struct{} {
	grams := similarity.QGrams(key, q)
	set := make(map[string]struct{}, len(grams))
	for _, g := range grams {
		set[g] = struct{}{}
	}
	return set
}

// diceOverlap is the Dice coefficient of two gram sets.
func diceOverlap(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for g := range a {
		if _, ok := b[g]; ok {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(a)+len(b))
}
