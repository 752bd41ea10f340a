package datalink

import "repro/internal/fusion"

// Fusion types: once items are linked, their descriptions merge into one
// entity per real-world object (the paper's motivating "data fusion
// step").
type (
	// FusionStrategy resolves conflicting property values across sources.
	FusionStrategy = fusion.Strategy
	// FusionConfig maps properties to strategies.
	FusionConfig = fusion.Config
	// FusedEntity is one merged description with provenance per value.
	FusedEntity = fusion.Entity
	// FusedValue is one property value with its provenance.
	FusedValue = fusion.Value
)

// Fusion strategies.
const (
	// FuseUnion keeps every distinct value.
	FuseUnion = fusion.Union
	// FusePreferLocal keeps catalog values when present.
	FusePreferLocal = fusion.PreferLocal
	// FusePreferExternal keeps provider values when present.
	FusePreferExternal = fusion.PreferExternal
	// FuseVote keeps the most frequent value (ties favour the catalog).
	FuseVote = fusion.Vote
	// FuseLongest keeps the longest literal value.
	FuseLongest = fusion.Longest
)

// Fuse merges matched (external, local) pairs into fused entities.
func Fuse(pairs [][2]Term, se, sl *Graph, cfg FusionConfig) []FusedEntity {
	return fusion.Fuse(pairs, se, sl, cfg)
}

// FusedToGraph serializes fused entities back to RDF, including the
// owl:sameAs links recording each reconciliation.
func FusedToGraph(entities []FusedEntity) *Graph { return fusion.ToGraph(entities) }
