package core

import (
	"slices"
	"sort"

	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/segment"
)

// Prediction is one class predicted for an external item, justified by
// the best rule that fired for it.
type Prediction struct {
	Class rdf.Term
	Rule  Rule
}

// Classifier applies a rule set to external items. It indexes rules by
// (property, segment) so classification of one item costs the number of
// its segments, not the number of rules. Safe for concurrent use.
type Classifier struct {
	splitter   segment.Splitter
	properties []rdf.Term
	// bySegment maps property -> segment -> rules sorted best-first.
	bySegment map[rdf.Term]map[string][]Rule
}

// NewClassifier builds a classifier over the rules using the given
// splitter (nil means the paper's default separator splitter, which must
// match the splitter used at learning time to be meaningful).
func NewClassifier(rs *RuleSet, sp segment.Splitter) *Classifier {
	if sp == nil {
		sp = segment.NewSeparatorSplitter(segment.Options{})
	}
	c := &Classifier{
		splitter:  sp,
		bySegment: map[rdf.Term]map[string][]Rule{},
	}
	propSet := map[rdf.Term]struct{}{}
	for _, r := range rs.Rules {
		propSet[r.Property] = struct{}{}
		m := c.bySegment[r.Property]
		if m == nil {
			m = map[string][]Rule{}
			c.bySegment[r.Property] = m
		}
		m[r.Segment] = append(m[r.Segment], r)
	}
	for _, m := range c.bySegment {
		for seg := range m {
			rules := m[seg]
			sort.Slice(rules, func(i, j int) bool { return rules[i].Less(rules[j]) })
		}
	}
	for p := range propSet {
		c.properties = append(c.properties, p)
	}
	sort.Slice(c.properties, func(i, j int) bool {
		return c.properties[i].Compare(c.properties[j]) < 0
	})
	return c
}

// Properties returns the properties the classifier consults, sorted.
func (c *Classifier) Properties() []rdf.Term {
	return append([]rdf.Term(nil), c.properties...)
}

// Classify predicts classes for the external item described in se. The
// result is deduplicated by class — two rules selecting the same subspace
// keep only the better one, per the paper — and ordered by confidence
// then lift (best first). A nil result means no rule fired.
func (c *Classifier) Classify(item rdf.Term, se *rdf.Graph) []Prediction {
	values := map[rdf.Term][]string{}
	for _, p := range c.properties {
		for _, o := range se.Objects(item, p) {
			if o.IsLiteral() {
				values[p] = append(values[p], o.Value)
			}
		}
	}
	return c.ClassifyValues(values)
}

// ClassifyValues predicts classes from raw property values, for callers
// that do not hold an RDF graph (e.g. streaming provider documents).
func (c *Classifier) ClassifyValues(values map[rdf.Term][]string) []Prediction {
	segs := make(map[rdf.Term][]string, len(values))
	for p, vs := range values {
		for _, v := range vs {
			segs[p] = append(segs[p], c.splitter.Split(v)...)
		}
	}
	return c.ClassifySegments(segs)
}

// ClassifySegments predicts classes from pre-split segments, for callers
// that already hold the segment decomposition (e.g. the evaluation
// harness replaying a learner's training index).
func (c *Classifier) ClassifySegments(segments map[rdf.Term][]string) []Prediction {
	best := map[rdf.Term]Rule{}
	for p, segs := range segments {
		segIndex := c.bySegment[p]
		if segIndex == nil {
			continue
		}
		for _, a := range segs {
			for _, r := range segIndex[a] {
				cur, ok := best[r.Class]
				if !ok || r.Less(cur) {
					best[r.Class] = r
				}
			}
		}
	}
	if len(best) == 0 {
		return nil
	}
	out := make([]Prediction, 0, len(best))
	for cls, r := range best {
		out = append(out, Prediction{Class: cls, Rule: r})
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Rule, out[j].Rule
		if ri.Less(rj) {
			return true
		}
		if rj.Less(ri) {
			return false
		}
		return out[i].Class.Compare(out[j].Class) < 0
	})
	return out
}

// FiredRules returns every distinct rule that fires on the given
// segments, without per-class deduplication or ranking — raw material for
// alternative ordering policies (the E5 ablation).
func (c *Classifier) FiredRules(segments map[rdf.Term][]string) []Rule {
	seen := map[Rule]struct{}{}
	var out []Rule
	for p, segs := range segments {
		segIndex := c.bySegment[p]
		if segIndex == nil {
			continue
		}
		for _, a := range segs {
			for _, r := range segIndex[a] {
				if _, dup := seen[r]; dup {
					continue
				}
				seen[r] = struct{}{}
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// InstanceIndex resolves a class to its instance set in SL, including
// instances of all subclasses, with memoization. It also knows the total
// number of typed instances, the denominator of space-reduction factors.
//
// The index holds catalog items as dense IDs from the IDTable it owns
// (IDs): each class's direct instances as a sorted ID slice, and each
// memoized class set, descendants included, as an IDSet bitset over the
// ID space — 3.75 KB per class at 30,000 items. Space ORs the predicted
// classes' bitsets into the item's reduced space, and a pipeline's
// linkage engine scores those IDs against value columns keyed by the
// same table, so the serving path never hashes, sorts or allocates a
// catalog term. Instances, Contains and CandidatePairs keep their
// term-level contracts as adapters over the table.
//
// The index is incrementally maintainable: UpsertInstance and
// RemoveInstance update the sorted per-class slices and invalidate only
// the memo entries of the affected classes and their ancestors, so a
// catalog mutation costs O(classes of the item) instead of the full
// NewInstanceIndex pass over every rdf:type triple. A removed instance
// keeps its ID.
//
// Concurrency: a live index must be confined to one goroutine (or the
// caller's write lock). Snapshot returns a frozen view that is safe for
// unsynchronized concurrent readers while the live index keeps mutating
// — the sharing contract mirrors rdf.Graph.Snapshot.
type InstanceIndex struct {
	ids *IDTable
	// direct maps a class to the sorted IDs of its direct instances.
	// Slices are treated as immutable values: updates install a fresh
	// slice, so a snapshot sharing the old one never tears.
	direct map[rdf.Term][]uint32
	// types is the reverse map, indexed by ID: an instance's sorted
	// direct classes, nil for an ID that names no typed item. It is the
	// state that makes diff-based upserts possible. Only the live index
	// reads it, so snapshots do not hold it.
	types [][]rdf.Term
	ont   *ontology.Ontology
	total int
	// memo maps a class to its instance set, descendants included; nil
	// for a class without instances. Sets are never written once stored.
	memo map[rdf.Term]IDSet
	// frozen marks a snapshot: mutations panic and memo misses compute
	// without writing, keeping concurrent reads safe.
	frozen bool
	// sharedDirect/sharedMemo record that a snapshot still shares the
	// respective map header; the next mutation shallow-copies it first.
	sharedDirect bool
	sharedMemo   bool
}

// NewInstanceIndex reads the rdf:type objects of every subject of sl
// into an index with a private IDTable. Class declarations are not
// instances. The walk follows rdf.Term order, so the IDs of a freshly
// built index sort like their items.
func NewInstanceIndex(sl *rdf.Graph, ol *ontology.Ontology) *InstanceIndex {
	ix := &InstanceIndex{
		ids:    NewIDTable(),
		direct: map[rdf.Term][]uint32{},
		ont:    ol,
		memo:   map[rdf.Term]IDSet{},
	}
	items := sl.AllSubjects()
	ix.ids.reserve(len(items))
	ix.types = make([][]rdf.Term, 0, len(items))
	for _, item := range items {
		classes := slices.DeleteFunc(sl.Objects(item, rdf.TypeTerm), func(c rdf.Term) bool {
			return c == rdf.ClassTerm
		})
		if len(classes) == 0 {
			continue
		}
		id := ix.ids.Assign(item)
		for _, c := range classes {
			ix.direct[c] = append(ix.direct[c], id) // ascending IDs
		}
		ix.types = append(ix.types, classes)
	}
	ix.total = len(ix.types)
	return ix
}

// IDs returns the index's ID table: the writer's on a live index, a
// frozen snapshot on a snapshot. Every ID in the index's sets is below
// its Len.
func (ix *InstanceIndex) IDs() *IDTable { return ix.ids }

// Total returns the number of distinct typed instances in the catalog.
func (ix *InstanceIndex) Total() int { return ix.total }

// Frozen reports whether ix is an immutable snapshot.
func (ix *InstanceIndex) Frozen() bool { return ix.frozen }

// Snapshot returns a frozen view of the index in O(1): it shares the
// per-class slices and memo with the live index, which copy-on-writes
// whatever a later mutation touches, and holds a snapshot of the ID
// table. Reads on the snapshot are safe concurrently with live
// mutations; reads that miss the memo compute their result without
// storing it. Snapshot must be serialized with mutations. The snapshot
// of a snapshot is the snapshot itself.
func (ix *InstanceIndex) Snapshot() *InstanceIndex {
	if ix.frozen {
		return ix
	}
	if ix.ont != nil {
		// The subsumption closure is built lazily on first use, writing
		// shared ontology state; force it now, while still serialized
		// with mutations, so frozen readers that memo-miss never trigger
		// that write concurrently.
		ix.ont.Finalize()
	}
	snap := &InstanceIndex{
		ids:    ix.ids.Snapshot(),
		direct: ix.direct,
		ont:    ix.ont,
		total:  ix.total,
		memo:   ix.memo,
		frozen: true,
	}
	ix.sharedDirect, ix.sharedMemo = true, true
	return snap
}

// mutableMaps shallow-copies any map header a snapshot still shares, so
// the caller may write. The slices inside stay shared: updates replace
// them wholesale.
func (ix *InstanceIndex) mutableMaps() {
	if ix.frozen {
		panic("core: mutating a frozen InstanceIndex snapshot")
	}
	if ix.sharedDirect {
		m := make(map[rdf.Term][]uint32, len(ix.direct))
		for k, v := range ix.direct {
			m[k] = v
		}
		ix.direct, ix.sharedDirect = m, false
	}
	if ix.sharedMemo {
		m := make(map[rdf.Term]IDSet, len(ix.memo))
		for k, v := range ix.memo {
			m[k] = v
		}
		ix.memo, ix.sharedMemo = m, false
	}
}

// UpsertInstance sets inst's direct classes (replacing whatever they
// were) and updates the index incrementally: per-class sorted slices are
// patched copy-on-write and only the memo entries of changed classes and
// their ancestors are invalidated. rdf.ClassTerm entries are ignored,
// matching NewInstanceIndex. An empty classes slice removes the
// instance. Reports whether anything changed.
func (ix *InstanceIndex) UpsertInstance(inst rdf.Term, classes []rdf.Term) bool {
	newClasses := make([]rdf.Term, 0, len(classes))
	for _, c := range classes {
		if c == rdf.ClassTerm || c.IsZero() {
			continue
		}
		newClasses = append(newClasses, c)
	}
	slices.SortFunc(newClasses, rdf.Term.Compare)
	newClasses = dedupSorted(newClasses)
	var old []rdf.Term
	if id, ok := ix.ids.ID(inst); ok && int(id) < len(ix.types) {
		old = ix.types[id]
	}

	added := diffSorted(newClasses, old)
	removed := diffSorted(old, newClasses)
	if len(added) == 0 && len(removed) == 0 {
		return false
	}
	ix.mutableMaps()
	// An instance that had or gains a class has an ID; Assign returns
	// the one it already has.
	id := ix.ids.Assign(inst)
	for _, c := range removed {
		if s := removeSorted(ix.direct[c], id); len(s) == 0 {
			delete(ix.direct, c)
		} else {
			ix.direct[c] = s
		}
	}
	for _, c := range added {
		ix.direct[c] = insertSorted(ix.direct[c], id)
	}
	switch {
	case len(old) == 0 && len(newClasses) > 0:
		ix.total++
	case len(old) > 0 && len(newClasses) == 0:
		ix.total--
	}
	for int(id) >= len(ix.types) {
		ix.types = append(ix.types, nil)
	}
	ix.types[id] = newClasses
	for _, c := range added {
		ix.invalidate(c)
	}
	for _, c := range removed {
		ix.invalidate(c)
	}
	return true
}

// RemoveInstance drops inst from the index entirely; equivalent to
// UpsertInstance(inst, nil). Reports whether the instance was present.
func (ix *InstanceIndex) RemoveInstance(inst rdf.Term) bool {
	return ix.UpsertInstance(inst, nil)
}

// invalidate drops the memo entries whose result can depend on class c:
// c itself and every ancestor (Instances includes descendant instances).
func (ix *InstanceIndex) invalidate(c rdf.Term) {
	delete(ix.memo, c)
	if ix.ont == nil {
		return
	}
	for _, a := range ix.ont.Ancestors(c) {
		delete(ix.memo, a)
	}
}

// set returns the instance set of c, descendants included: the memo
// entry, or the OR of the direct ID slices, memoized on a live index.
// The returned set is shared; callers must not write it.
func (ix *InstanceIndex) set(c rdf.Term) IDSet {
	if got, ok := ix.memo[c]; ok {
		return got
	}
	var out IDSet
	add := func(class rdf.Term) {
		ids := ix.direct[class]
		if len(ids) > 0 && out == nil {
			out = make(IDSet, (ix.ids.Len()+63)/64)
		}
		for _, id := range ids {
			out[id>>6] |= 1 << (id & 63)
		}
	}
	add(c)
	if ix.ont != nil {
		for _, d := range ix.ont.Descendants(c) {
			add(d)
		}
	}
	if !ix.frozen {
		// A frozen snapshot may be read concurrently, so a memo miss is
		// computed per call instead of stored; the live index un-shares
		// its maps before memoizing.
		ix.mutableMaps()
		ix.memo[c] = out
	}
	return out
}

// Instances returns the instances of c, including those of its
// descendants, sorted by rdf.Term.Compare, gathered from the ID table
// on each call. The slice is the caller's.
func (ix *InstanceIndex) Instances(c rdf.Term) []rdf.Term {
	return ix.ids.Items(ix.set(c))
}

// Contains reports whether inst is an instance of c (or of a descendant
// of c): one ID lookup and one bit test.
func (ix *InstanceIndex) Contains(c, inst rdf.Term) bool {
	id, ok := ix.ids.ID(inst)
	return ok && ix.set(c).Has(id)
}

// Freeze precomputes the instance sets of the given classes so later
// concurrent reads hit only the memo. Classes already memoized cost one
// lookup each, so a writer may call it before every Snapshot. A no-op
// on frozen snapshots, which never write their memo.
func (ix *InstanceIndex) Freeze(classes []rdf.Term) {
	if ix.frozen {
		return
	}
	for _, c := range classes {
		ix.set(c)
	}
}

// insertSorted returns a fresh sorted slice with x inserted (the input
// itself when x is already present). The input slice is never written:
// snapshots may share it.
func insertSorted(s []uint32, x uint32) []uint32 {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s
	}
	out := make([]uint32, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// removeSorted returns a fresh sorted slice without x, sharing nothing
// with the input.
func removeSorted(s []uint32, x uint32) []uint32 {
	i, found := slices.BinarySearch(s, x)
	if !found {
		return s
	}
	out := make([]uint32, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(s []rdf.Term) []rdf.Term {
	out := s[:0]
	for i, x := range s {
		if i == 0 || s[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// diffSorted returns the elements of a not present in b; both sorted.
func diffSorted(a, b []rdf.Term) []rdf.Term {
	var out []rdf.Term
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i].Compare(b[j]) < 0:
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// Subspace is the linking subspace selected by one rule for one external
// item: the pairs (item, j) for every instance j of the predicted class.
type Subspace struct {
	Item  rdf.Term
	Class rdf.Term
	Rule  Rule
	// Size is the number of local instances in the subspace.
	Size int
}

// SpaceReport aggregates the subspaces of one item and the resulting
// reduction of its linking space.
type SpaceReport struct {
	Item      rdf.Term
	Subspaces []Subspace
	// UnionSize is the number of distinct local candidates across all
	// subspaces — the item's reduced linking space.
	UnionSize int
	// CatalogSize is |SL| (typed instances), the naive per-item space.
	CatalogSize int
	// cands is the union itself, over the IDs of the instance index the
	// report was computed on.
	cands IDSet
}

// ReductionFactor is CatalogSize / UnionSize, and 0 when UnionSize is
// 0: no rule fired, or the predicted classes have no local instance.
// Such an item's reduced space is empty, and the policy is to keep it
// empty: the serving path scores no candidate for it and answers with
// no matches, rather than falling back to the full catalog.
func (sr SpaceReport) ReductionFactor() float64 {
	if sr.UnionSize == 0 {
		return 0
	}
	return float64(sr.CatalogSize) / float64(sr.UnionSize)
}

// Candidates returns the item's local candidates, the union of its
// subspaces, as IDs of the instance index's IDTable. The set may be
// shared with the index; callers must not write it.
func (sr SpaceReport) Candidates() IDSet { return sr.cands }

// Space computes the linking space of one external item: its ranked
// subspaces, and their union as an OR of the predicted classes' memoized
// bitsets, kept in the report (Candidates) so that nothing rebuilds or
// sorts the candidates afterwards. Predictions whose class has no local
// instance yield empty subspaces that still appear in the report (they
// are cheap and the expert may want to see them).
func Space(item rdf.Term, preds []Prediction, ix *InstanceIndex) SpaceReport {
	sr := SpaceReport{Item: item, CatalogSize: ix.Total()}
	for i, pr := range preds {
		set := ix.set(pr.Class)
		sr.Subspaces = append(sr.Subspaces, Subspace{
			Item:  item,
			Class: pr.Class,
			Rule:  pr.Rule,
			Size:  set.Len(),
		})
		if i == 0 {
			sr.cands = set // shared with the memo until a second class
		} else {
			sr.cands = sr.cands.or(set, i > 1)
		}
	}
	sr.UnionSize = sr.cands.Len()
	return sr
}

// CandidatePairs expands a space report into (external, local) pairs for
// a downstream matcher, deduplicated and sorted. ix must be the index
// the report was computed on, or a later state of it. Its caller is
// linkbench's reference path; queries score SpaceReport.Candidates.
func CandidatePairs(sr SpaceReport, ix *InstanceIndex) [][2]rdf.Term {
	cands := ix.ids.Items(sr.cands)
	out := make([][2]rdf.Term, 0, len(cands))
	for _, l := range cands {
		out = append(out, [2]rdf.Term{sr.Item, l})
	}
	return out
}
