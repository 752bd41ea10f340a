package service

import (
	"fmt"
	"sort"
	"strings"

	datalink "repro"
	"repro/internal/similarity"
	"repro/internal/store"
)

// measures maps wire names to similarity measures. All listed measures
// are stateless values, so sharing one instance across requests is safe.
var measures = map[string]similarity.Measure{
	"exact":       similarity.Exact{},
	"exactfold":   similarity.ExactFold{},
	"levenshtein": similarity.Levenshtein{},
	"damerau":     similarity.Damerau{},
	"jaro":        similarity.Jaro{},
	"jarowinkler": similarity.JaroWinkler{},
	"jaccard":     similarity.Jaccard{},
	"mongeelkan":  similarity.MongeElkan{},
	"soundex":     similarity.Soundex{},
	"lcs":         similarity.LongestCommonSubstring{},
}

// MeasureNames lists the wire names link requests may use, sorted.
func MeasureNames() []string {
	out := make([]string, 0, len(measures))
	for name := range measures {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// measureByName resolves a wire name case-insensitively.
func measureByName(name string) (similarity.Measure, error) {
	m, ok := measures[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("unknown measure %q (available: %s)", name, strings.Join(MeasureNames(), ", "))
	}
	return m, nil
}

// compileComparators turns wire comparators, a link request's or a
// snapshot's, into a linker comparator slice. A missing local property
// defaults to the external one (same-schema linking), and a zero weight
// defaults to 1.
func compileComparators(specs []store.ComparatorMeta) ([]datalink.Comparator, error) {
	out := make([]datalink.Comparator, 0, len(specs))
	for i, sp := range specs {
		if sp.ExternalProperty == "" {
			return nil, fmt.Errorf("comparator %d: external_property is required", i)
		}
		local := sp.LocalProperty
		if local == "" {
			local = sp.ExternalProperty
		}
		m, err := measureByName(sp.Measure)
		if err != nil {
			return nil, fmt.Errorf("comparator %d: %w", i, err)
		}
		w := sp.Weight
		if w == 0 {
			w = 1
		}
		out = append(out, datalink.Comparator{
			ExternalProperty: datalink.NewIRI(sp.ExternalProperty),
			LocalProperty:    datalink.NewIRI(local),
			Measure:          m,
			Weight:           w,
		})
	}
	return out, nil
}
