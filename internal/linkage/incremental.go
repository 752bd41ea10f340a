package linkage

import "repro/internal/rdf"

// Side selects which of an engine's two sources an item belongs to.
type Side int

const (
	// ExternalSide addresses items of the external graph (SE).
	ExternalSide Side = iota
	// LocalSide addresses items of the local catalog graph (SL).
	LocalSide
)

// String returns the side name, for diagnostics and wire formats.
func (s Side) String() string {
	if s == ExternalSide {
		return "external"
	}
	return "local"
}

// IndexPatch is one batched value-index mutation: re-index (or with
// Remove, drop) Items on Side. A slice of patches expresses an ordered
// mixed upsert/remove batch for ApplyPatches.
type IndexPatch struct {
	Side   Side
	Remove bool
	Items  []rdf.Term
}

// ApplyPatches applies an ordered sequence of upsert/remove patches to
// the writer's local index. An upsert re-reads each item's values from
// the local graph, dropping items with no remaining values; a remove
// drops the items without consulting the graph. External-side patches
// need no work: external items are resolved from the graph at query
// time, so the caller's contract is only to mutate the external graph
// before the next Snapshot. Panics on a snapshot.
func (e *Engine) ApplyPatches(patches []IndexPatch) {
	ix := e.ix
	if ix.mut == nil {
		panic("linkage: patching a frozen engine snapshot")
	}
	for _, p := range patches {
		if p.Side != LocalSide {
			continue
		}
		for _, item := range p.Items {
			sh := shardOf(item)
			for ci := range ix.comps {
				c, li := &ix.comps[ci], ix.loc[ci]
				var vals []indexedValue
				if !p.Remove {
					// Acquire the new values before releasing the old ones,
					// so a value present in both keeps its cache entry warm.
					if objs := literals(ix.sl, item, c.locProp); len(objs) > 0 {
						vals = acquireValues(objs, ix.cache, c.slot)
					}
				}
				if vals == nil && li[sh].m[item] == nil {
					continue // nothing indexed, nothing to drop
				}
				ix.cache.release(li.set(ix.mut, sh, item, vals))
			}
		}
	}
}

// Snapshot returns a frozen engine over the current state in O(1): it
// resolves external items from a snapshot of the external graph
// (rdf.Graph.Snapshot, so the same one a caller snapshotting that graph
// at the same moment gets) and shares the local indexes, which the
// writer copies shard by shard before writing again. The snapshot is
// safe for any number of concurrent readers while the writer keeps
// patching; Snapshot itself must be serialized with ApplyPatches and
// with mutations of the graphs. The snapshot of a snapshot is itself.
func (e *Engine) Snapshot() *Engine {
	ix := e.ix
	if ix.mut == nil {
		return e
	}
	snap := &index{comps: ix.comps, totalWeight: ix.totalWeight, derive: ix.derive, se: ix.se}
	if snap.se != nil {
		snap.se = snap.se.Snapshot()
	}
	snap.loc = make([]*localIndex, len(ix.loc))
	for i, li := range ix.loc {
		frozen := *li
		snap.loc[i] = &frozen
	}
	// Disown every shard: the next write copies before it writes.
	ix.mut = &mutToken{}
	return &Engine{cfg: e.cfg, ix: snap}
}
