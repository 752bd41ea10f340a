// Package segment implements the value-splitting step of the paper: the
// way a property value Y is decomposed into the segments `a` appearing in
// subsegment(Y, a) atoms. The paper leaves the splitting policy to a
// domain expert — separator characters or n-grams — so the package exposes
// a Splitter interface with both implementations plus the normalization
// knobs an expert would want (case folding, minimum length, numeric
// filtering).
package segment

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Splitter decomposes a property value into segments. Implementations
// must be deterministic and safe for concurrent use. Split returns
// segments in order of occurrence, including duplicates; callers that
// need the distinct set deduplicate.
type Splitter interface {
	// Split returns the segments of value, possibly empty.
	Split(value string) []string
	// Name identifies the splitter configuration, for reports.
	Name() string
}

// Options configures normalization shared by the splitters.
type Options struct {
	// Lowercase folds segments to lower case, so "OHM" and "ohm" merge.
	Lowercase bool
	// MinLength drops segments shorter than this many runes. Zero means 1.
	MinLength int
	// DropNumeric drops segments consisting only of digits; the paper's
	// part-numbers contain long serial digit runs that carry no class
	// signal.
	DropNumeric bool
}

// suffix renders the options for splitter names, e.g. "+lower+min3".
func (o Options) suffix() string {
	var b strings.Builder
	if o.Lowercase {
		b.WriteString("+lower")
	}
	if o.MinLength > 1 {
		fmt.Fprintf(&b, "+min%d", o.MinLength)
	}
	if o.DropNumeric {
		b.WriteString("+nonum")
	}
	return b.String()
}

func (o Options) normalize(seg string) (string, bool) {
	if o.Lowercase {
		seg = strings.ToLower(seg)
	}
	min := o.MinLength
	if min <= 0 {
		min = 1
	}
	n := 0
	allDigits := true
	for _, r := range seg {
		n++
		if !unicode.IsDigit(r) {
			allDigits = false
		}
	}
	if n < min {
		return "", false
	}
	if o.DropNumeric && allDigits {
		return "", false
	}
	return seg, true
}

// SeparatorSplitter splits values on a set of separator runes. The zero
// value (via NewSeparatorSplitter with no runes) reproduces the paper's
// policy: every rune that is neither a letter nor a digit separates.
type SeparatorSplitter struct {
	seps map[rune]struct{} // nil => any non-alphanumeric rune
	opts Options
}

// NewSeparatorSplitter returns a splitter cutting on the given runes; with
// no runes it cuts on every non-alphanumeric rune, the paper's default
// ("space, '-', '.', ...").
func NewSeparatorSplitter(opts Options, seps ...rune) *SeparatorSplitter {
	s := &SeparatorSplitter{opts: opts}
	if len(seps) > 0 {
		s.seps = make(map[rune]struct{}, len(seps))
		for _, r := range seps {
			s.seps[r] = struct{}{}
		}
	}
	return s
}

// isSep reports whether r separates segments.
func (s *SeparatorSplitter) isSep(r rune) bool {
	if s.seps == nil {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}
	_, ok := s.seps[r]
	return ok
}

// Split implements Splitter.
func (s *SeparatorSplitter) Split(value string) []string {
	var out []string
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		if seg, ok := s.opts.normalize(value[start:end]); ok {
			out = append(out, seg)
		}
		start = -1
	}
	for i, r := range value {
		if s.isSep(r) {
			flush(i)
			continue
		}
		if start < 0 {
			start = i
		}
	}
	flush(len(value))
	return out
}

// Name implements Splitter.
func (s *SeparatorSplitter) Name() string {
	if s.seps == nil {
		return "separators(non-alphanumeric)" + s.opts.suffix()
	}
	runes := make([]string, 0, len(s.seps))
	for r := range s.seps {
		runes = append(runes, string(r))
	}
	// Deterministic name regardless of map order.
	sort.Strings(runes)
	return "separators(" + strings.Join(runes, "") + ")" + s.opts.suffix()
}
