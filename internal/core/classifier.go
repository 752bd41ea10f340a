package core

import (
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

// Best returns the top prediction, if any.
func (c *Classifier) Best(item rdf.Term, se *rdf.Graph) (Prediction, bool) {
	preds := c.Classify(item, se)
	if len(preds) == 0 {
		return Prediction{}, false
	}
	return preds[0], true
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
// The index is incrementally maintainable: UpsertInstance and
// RemoveInstance update the sorted per-class slices in place and
// invalidate only the memo entries of the affected classes and their
// ancestors, so a catalog mutation costs O(classes of the item) instead
// of the full NewInstanceIndex pass over every rdf:type triple.
//
// Concurrency: a live index must be confined to one goroutine (or the
// caller's write lock). Snapshot returns a frozen view that is safe for
// unsynchronized concurrent readers while the live index keeps mutating
// — the sharing contract mirrors rdf.Graph.Snapshot.
type InstanceIndex struct {
	// direct maps a class to its sorted direct instances. Slices are
	// treated as immutable values: updates install a fresh slice, so a
	// snapshot sharing the old one never tears.
	direct map[rdf.Term][]rdf.Term
	// types is the reverse map (instance -> its direct classes), the
	// state that makes diff-based upserts possible. Only the live index
	// reads it, so snapshots share it without copying.
	types map[rdf.Term][]rdf.Term
	ont   *ontology.Ontology
	total int
	memo  map[rdf.Term][]rdf.Term
	// frozen marks a snapshot: mutations panic and memo misses compute
	// without writing, keeping concurrent reads safe.
	frozen bool
	// sharedDirect/sharedMemo record that a snapshot still shares the
	// respective map header; the next mutation shallow-copies it first.
	sharedDirect bool
	sharedMemo   bool
}

// NewInstanceIndex scans the rdf:type triples of sl.
func NewInstanceIndex(sl *rdf.Graph, ol *ontology.Ontology) *InstanceIndex {
	ix := &InstanceIndex{
		direct: map[rdf.Term][]rdf.Term{},
		types:  map[rdf.Term][]rdf.Term{},
		ont:    ol,
		memo:   map[rdf.Term][]rdf.Term{},
	}
	sl.Match(rdf.Term{}, rdf.TypeTerm, rdf.Term{}, func(t rdf.Triple) bool {
		if t.O == rdf.ClassTerm {
			return true // class declarations are not instances
		}
		ix.direct[t.O] = append(ix.direct[t.O], t.S)
		ix.types[t.S] = append(ix.types[t.S], t.O)
		return true
	})
	for c := range ix.direct {
		sortTermSlice(ix.direct[c])
	}
	for i := range ix.types {
		sortTermSlice(ix.types[i])
	}
	ix.total = len(ix.types)
	return ix
}

// Total returns the number of distinct typed instances in the catalog.
func (ix *InstanceIndex) Total() int { return ix.total }

// Frozen reports whether ix is an immutable snapshot.
func (ix *InstanceIndex) Frozen() bool { return ix.frozen }

// Snapshot returns a frozen view of the index in O(1): it shares the
// per-class slices and memo with the live index, which copy-on-writes
// whatever a later mutation touches. Reads on the snapshot are safe
// concurrently with live mutations; reads that miss the memo compute
// their result without storing it. Snapshot must be serialized with
// mutations. The snapshot of a snapshot is the snapshot itself.
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
		m := make(map[rdf.Term][]rdf.Term, len(ix.direct))
		for k, v := range ix.direct {
			m[k] = v
		}
		ix.direct, ix.sharedDirect = m, false
	}
	if ix.sharedMemo {
		m := make(map[rdf.Term][]rdf.Term, len(ix.memo))
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
	sortTermSlice(newClasses)
	newClasses = dedupSorted(newClasses)
	old := ix.types[inst]

	added := diffSorted(newClasses, old)
	removed := diffSorted(old, newClasses)
	if len(added) == 0 && len(removed) == 0 {
		return false
	}
	ix.mutableMaps()
	for _, c := range removed {
		if s := removeSorted(ix.direct[c], inst); len(s) == 0 {
			delete(ix.direct, c)
		} else {
			ix.direct[c] = s
		}
	}
	for _, c := range added {
		ix.direct[c] = insertSorted(ix.direct[c], inst)
	}
	switch {
	case len(old) == 0 && len(newClasses) > 0:
		ix.total++
	case len(old) > 0 && len(newClasses) == 0:
		ix.total--
	}
	if len(newClasses) == 0 {
		delete(ix.types, inst)
	} else {
		ix.types[inst] = newClasses
	}
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

// Instances returns the instances of c, including those of its
// descendants, sorted. The returned slice is shared; callers must not
// mutate it.
func (ix *InstanceIndex) Instances(c rdf.Term) []rdf.Term {
	if got, ok := ix.memo[c]; ok {
		return got
	}
	set := map[rdf.Term]struct{}{}
	for _, i := range ix.direct[c] {
		set[i] = struct{}{}
	}
	if ix.ont != nil {
		for _, d := range ix.ont.Descendants(c) {
			for _, i := range ix.direct[d] {
				set[i] = struct{}{}
			}
		}
	}
	out := make([]rdf.Term, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sortTermSlice(out)
	if !ix.frozen {
		// A frozen snapshot may be read concurrently, so a memo miss is
		// computed per call instead of stored; the live index un-shares
		// its maps before memoizing.
		ix.mutableMaps()
		ix.memo[c] = out
	}
	return out
}

// Count returns |Instances(c)| without exposing the slice.
func (ix *InstanceIndex) Count(c rdf.Term) int { return len(ix.Instances(c)) }

// Contains reports whether inst is an instance of c (or of a descendant
// of c) by binary search over the memoized sorted instance set.
func (ix *InstanceIndex) Contains(c, inst rdf.Term) bool {
	insts := ix.Instances(c)
	i := sort.Search(len(insts), func(k int) bool { return insts[k].Compare(inst) >= 0 })
	return i < len(insts) && insts[i] == inst
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
		ix.Instances(c)
	}
}

// insertSorted returns a fresh sorted slice with x inserted (no-op copy
// when already present). The input slice is never written: snapshots may
// share it.
func insertSorted(s []rdf.Term, x rdf.Term) []rdf.Term {
	i := sort.Search(len(s), func(k int) bool { return s[k].Compare(x) >= 0 })
	if i < len(s) && s[i] == x {
		return s
	}
	out := make([]rdf.Term, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	out = append(out, s[i:]...)
	return out
}

// removeSorted returns a fresh sorted slice without x, sharing nothing
// with the input.
func removeSorted(s []rdf.Term, x rdf.Term) []rdf.Term {
	i := sort.Search(len(s), func(k int) bool { return s[k].Compare(x) >= 0 })
	if i >= len(s) || s[i] != x {
		return s
	}
	out := make([]rdf.Term, 0, len(s)-1)
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
}

// ReductionFactor is CatalogSize / UnionSize; 0 when no rule fired
// (UnionSize 0), meaning the item's space is not reduced at all and the
// caller must fall back to the full catalog.
func (sr SpaceReport) ReductionFactor() float64 {
	if sr.UnionSize == 0 {
		return 0
	}
	return float64(sr.CatalogSize) / float64(sr.UnionSize)
}

// Candidates returns the union of local candidates across the item's
// subspaces, sorted.
func (sr *SpaceReport) candidates(ix *InstanceIndex) []rdf.Term {
	set := map[rdf.Term]struct{}{}
	for _, ss := range sr.Subspaces {
		for _, inst := range ix.Instances(ss.Class) {
			set[inst] = struct{}{}
		}
	}
	out := make([]rdf.Term, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sortTermSlice(out)
	return out
}

// Space computes the linking space of one external item: its ranked
// subspaces and the union size. Predictions whose class has no local
// instance yield empty subspaces that still appear in the report (they
// are cheap and the expert may want to see them).
func Space(item rdf.Term, preds []Prediction, ix *InstanceIndex) SpaceReport {
	sr := SpaceReport{Item: item, CatalogSize: ix.Total()}
	union := map[rdf.Term]struct{}{}
	for _, pr := range preds {
		insts := ix.Instances(pr.Class)
		sr.Subspaces = append(sr.Subspaces, Subspace{
			Item:  item,
			Class: pr.Class,
			Rule:  pr.Rule,
			Size:  len(insts),
		})
		for _, i := range insts {
			union[i] = struct{}{}
		}
	}
	sr.UnionSize = len(union)
	return sr
}

// CandidatePairs expands a space report into (external, local) pairs for
// a downstream matcher, deduplicated and sorted.
func CandidatePairs(sr SpaceReport, ix *InstanceIndex) [][2]rdf.Term {
	cands := sr.candidates(ix)
	out := make([][2]rdf.Term, 0, len(cands))
	for _, l := range cands {
		out = append(out, [2]rdf.Term{sr.Item, l})
	}
	return out
}

func sortTermSlice(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
