package segment

// Stats accumulates segment frequency statistics over a corpus of values,
// producing the counts Section 5 of the paper reports (distinct segments,
// total occurrences, and per segment its occurrences).
type Stats struct {
	counts map[string]int
	total  int
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{counts: map[string]int{}}
}

// ObserveSegments records pre-split segments.
func (st *Stats) ObserveSegments(segs []string) {
	for _, seg := range segs {
		st.counts[seg]++
		st.total++
	}
}

// Distinct returns the number of distinct segments observed.
func (st *Stats) Distinct() int { return len(st.counts) }

// Occurrences returns the total number of segment occurrences observed.
func (st *Stats) Occurrences() int { return st.total }

// Count returns the number of occurrences of one segment.
func (st *Stats) Count(seg string) int { return st.counts[seg] }
