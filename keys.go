package datalink

import "repro/internal/keys"

// Key is one discovered (almost-)key constraint: a property combination
// whose values uniquely identify instances within a class.
type Key = keys.Key

// KeyConfig tunes key discovery.
type KeyConfig = keys.Config

// DiscoverKeys finds minimal (almost-)keys per class over the
// literal-valued properties of the catalog — the key constraints the
// paper's related work partitions the linking space with.
func DiscoverKeys(sl *Graph, classes []Term, cfg KeyConfig) []Key {
	return keys.Discover(sl, classes, cfg)
}
