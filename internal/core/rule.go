package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Rule is one learned classification rule
//
//	Property(X, Y) ∧ subsegment(Y, Segment) ⇒ Class(X)
//
// carrying the raw counts it was mined from, so every quality measure is
// recomputable and auditable ("concise and easy to understand by an
// expert", §6 of the paper).
type Rule struct {
	Property rdf.Term
	Segment  string
	Class    rdf.Term

	// PremiseCount is |{X : p(X,Y) ∧ subsegment(Y,a)}| over TS.
	PremiseCount int
	// JointCount is |{X : p(X,Y) ∧ subsegment(Y,a) ∧ c(X)}| over TS.
	JointCount int
	// ClassCount is |{X : c(X)}| over TS.
	ClassCount int
	// TSSize is |TS|.
	TSSize int

	// Generalized marks rules produced by the subsumption extension
	// rather than directly by Algorithm 1.
	Generalized bool
}

// Support is JointCount / |TS|: the rule's representativeness.
func (r Rule) Support() float64 {
	if r.TSSize == 0 {
		return 0
	}
	return float64(r.JointCount) / float64(r.TSSize)
}

// Confidence is JointCount / PremiseCount: the proportion of
// premise-satisfying items that are instances of the conclusion class.
func (r Rule) Confidence() float64 {
	if r.PremiseCount == 0 {
		return 0
	}
	return float64(r.JointCount) / float64(r.PremiseCount)
}

// Lift is Confidence / (ClassCount / |TS|): the deviation from premise ⫫
// conclusion. Lift > 1 means the segment positively signals the class;
// the higher the lift, the smaller the selected subspace relative to the
// catalog.
func (r Rule) Lift() float64 {
	if r.ClassCount == 0 || r.TSSize == 0 {
		return 0
	}
	classRate := float64(r.ClassCount) / float64(r.TSSize)
	return r.Confidence() / classRate
}

// String renders the rule in the paper's notation with its measures.
func (r Rule) String() string {
	return fmt.Sprintf("%s(X,Y) ∧ subsegment(Y,%q) ⇒ %s(X) [sup=%.4f conf=%.3f lift=%.1f]",
		localName(r.Property), r.Segment, localName(r.Class),
		r.Support(), r.Confidence(), r.Lift())
}

func localName(t rdf.Term) string {
	s := t.Value
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '#' || s[i] == '/' {
			return s[i+1:]
		}
	}
	return s
}

// Less orders rules the way the paper ranks subspaces: higher confidence
// first; on ties higher lift first ("consider first the smaller
// subspaces"); remaining ties broken by support then deterministically by
// identity so sorts are stable across runs.
func (r Rule) Less(o Rule) bool {
	if rc, oc := r.Confidence(), o.Confidence(); rc != oc {
		return rc > oc
	}
	if rl, ol := r.Lift(), o.Lift(); rl != ol {
		return rl > ol
	}
	if rs, os := r.Support(), o.Support(); rs != os {
		return rs > os
	}
	if c := r.Property.Compare(o.Property); c != 0 {
		return c < 0
	}
	if r.Segment != o.Segment {
		return r.Segment < o.Segment
	}
	return r.Class.Compare(o.Class) < 0
}

// RuleSet is an ordered collection of rules.
type RuleSet struct {
	Rules []Rule
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Sort orders the rules per Rule.Less.
func (rs *RuleSet) Sort() {
	sort.Slice(rs.Rules, func(i, j int) bool { return rs.Rules[i].Less(rs.Rules[j]) })
}

// ConfidenceBand returns the rules with confidence in [lo, hi); pass
// hi > 1 to make the band inclusive of confidence 1. The result preserves
// rule order.
func (rs *RuleSet) ConfidenceBand(lo, hi float64) []Rule {
	var out []Rule
	for _, r := range rs.Rules {
		if c := r.Confidence(); c >= lo && c < hi {
			out = append(out, r)
		}
	}
	return out
}

// AverageLift returns the mean lift of the rules (0 for an empty set) —
// the aggregate Section 5 reports per confidence band.
func AverageLift(rules []Rule) float64 {
	if len(rules) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rules {
		sum += r.Lift()
	}
	return sum / float64(len(rules))
}

// ruleWireVersion guards the text serialization format.
const ruleWireVersion = "linkrules/1"

// Write serializes the rule set to a line-oriented text format that
// round-trips all counts (tab-separated: property, segment, class,
// premise, joint, classCount, tsSize, generalized).
func (rs *RuleSet) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, ruleWireVersion); err != nil {
		return fmt.Errorf("core: writing rules: %w", err)
	}
	for _, r := range rs.Rules {
		gen := "0"
		if r.Generalized {
			gen = "1"
		}
		_, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			r.Property.Value, escapeField(r.Segment), r.Class.Value,
			r.PremiseCount, r.JointCount, r.ClassCount, r.TSSize, gen)
		if err != nil {
			return fmt.Errorf("core: writing rules: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: writing rules: %w", err)
	}
	return nil
}

// ReadRules parses a rule set written by Write.
func ReadRules(r io.Reader) (*RuleSet, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("core: reading rules: empty input")
	}
	if got := strings.TrimSpace(sc.Text()); got != ruleWireVersion {
		return nil, fmt.Errorf("core: reading rules: unsupported format %q", got)
	}
	rs := &RuleSet{}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 8 {
			return nil, fmt.Errorf("core: reading rules: line %d: %d fields, want 8", lineNo, len(fields))
		}
		nums := make([]int, 4)
		for i := 0; i < 4; i++ {
			n, err := strconv.Atoi(fields[3+i])
			if err != nil {
				return nil, fmt.Errorf("core: reading rules: line %d: bad count %q", lineNo, fields[3+i])
			}
			nums[i] = n
		}
		rs.Rules = append(rs.Rules, Rule{
			Property:     rdf.NewIRI(fields[0]),
			Segment:      unescapeField(fields[1]),
			Class:        rdf.NewIRI(fields[2]),
			PremiseCount: nums[0],
			JointCount:   nums[1],
			ClassCount:   nums[2],
			TSSize:       nums[3],
			Generalized:  fields[7] == "1",
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading rules: %w", err)
	}
	return rs, nil
}

// escapeField protects tabs and newlines inside segments.
func escapeField(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func unescapeField(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
