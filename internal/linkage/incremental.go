package linkage

import (
	"slices"

	"repro/internal/rdf"
)

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
// the writer's local value columns. An upsert re-reads each item's
// values from the local graph; a numbered engine (New) gives a new item
// the next ID of its table, and an engine over a shared table
// (NewWithIDs) skips an item the table does not know. An item with no
// remaining values, and a removed one, keeps its ID and loses its
// values. External-side patches need no work: external items are
// resolved from the graph at query time, so the caller's contract is
// only to mutate the external graph before the next Snapshot. Panics on
// a snapshot.
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
			id := ix.idOf(item)
			if id == noID && !ix.numbered {
				continue // no class set of the table can name it
			}
			for ci := range ix.cols {
				var vals []value
				if !p.Remove {
					vals = ix.localValues(ci, item)
				}
				old := ix.cols[ci].get(id)
				if vals == nil && old == nil {
					continue // nothing indexed, nothing to drop
				}
				if id == noID {
					id = ix.ids.Assign(item)
				}
				ix.cols[ci].set(ix.mut, id, vals)
				if ci == ix.band {
					ix.bands.move(ix.mut, id, old, vals)
				}
			}
		}
	}
}

// Snapshot returns a frozen engine over the current state in O(1): it
// resolves external items from a snapshot of the external graph
// (rdf.Graph.Snapshot, so the same one a caller snapshotting that graph
// at the same moment gets), reads a snapshot of the ID table (the same
// one the instance index sharing the table hands out), and shares the
// value columns and length bands, which the writer copies page by page
// before writing again. The snapshot is safe for any number of
// concurrent readers while the writer keeps patching; Snapshot itself
// must be serialized with ApplyPatches and with mutations of the graphs
// and the table. The snapshot of a snapshot is itself.
func (e *Engine) Snapshot() *Engine {
	ix := e.ix
	if ix.mut == nil {
		return e
	}
	snap := &index{
		comps:       ix.comps,
		totalWeight: ix.totalWeight,
		se:          ix.se,
		ids:         ix.ids.Snapshot(),
		cols:        slices.Clone(ix.cols),
		band:        ix.band,
		bands:       ix.bands,
	}
	if snap.se != nil {
		snap.se = snap.se.Snapshot()
	}
	// Disown every page: the next write copies before it writes.
	ix.mut = &mutToken{}
	return &Engine{cfg: e.cfg, ix: snap}
}
