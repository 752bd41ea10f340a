package segment

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestSeparatorSplitterPaperDefault(t *testing.T) {
	sp := NewSeparatorSplitter(Options{})
	tests := []struct {
		value string
		want  []string
	}{
		{"CRCW0805-63V ohm", []string{"CRCW0805", "63V", "ohm"}},
		{"T83.220;uF", []string{"T83", "220", "uF"}},
		{"  spaced   out ", []string{"spaced", "out"}},
		{"", nil},
		{"---", nil},
		{"single", []string{"single"}},
		{"a-b-a", []string{"a", "b", "a"}}, // duplicates preserved in order
		{"Père-Lachaise", []string{"Père", "Lachaise"}},
		{"Ω-10k", []string{"Ω", "10k"}}, // Ω is a letter
	}
	for _, tc := range tests {
		if got := sp.Split(tc.value); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Split(%q) = %v, want %v", tc.value, got, tc.want)
		}
	}
}

func TestSeparatorSplitterCustomSeps(t *testing.T) {
	sp := NewSeparatorSplitter(Options{}, '-', ':')
	got := sp.Split("a-b:c.d e")
	want := []string{"a", "b", "c.d e"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Split = %v, want %v", got, want)
	}
}

func TestSeparatorSplitterOptions(t *testing.T) {
	t.Run("lowercase", func(t *testing.T) {
		sp := NewSeparatorSplitter(Options{Lowercase: true})
		if got := sp.Split("OHM Ohm ohm"); !reflect.DeepEqual(got, []string{"ohm", "ohm", "ohm"}) {
			t.Errorf("Split = %v", got)
		}
	})
	t.Run("min length", func(t *testing.T) {
		sp := NewSeparatorSplitter(Options{MinLength: 3})
		if got := sp.Split("ab abc a abcd"); !reflect.DeepEqual(got, []string{"abc", "abcd"}) {
			t.Errorf("Split = %v", got)
		}
	})
	t.Run("drop numeric", func(t *testing.T) {
		sp := NewSeparatorSplitter(Options{DropNumeric: true})
		if got := sp.Split("123 63V 4567 ohm"); !reflect.DeepEqual(got, []string{"63V", "ohm"}) {
			t.Errorf("Split = %v", got)
		}
	})
	t.Run("min length counts runes not bytes", func(t *testing.T) {
		sp := NewSeparatorSplitter(Options{MinLength: 2})
		if got := sp.Split("éé è"); !reflect.DeepEqual(got, []string{"éé"}) {
			t.Errorf("Split = %v", got)
		}
	})
}

func TestSeparatorSplitterName(t *testing.T) {
	if got := NewSeparatorSplitter(Options{}).Name(); got != "separators(non-alphanumeric)" {
		t.Errorf("Name = %q", got)
	}
	n1 := NewSeparatorSplitter(Options{}, ':', '-').Name()
	n2 := NewSeparatorSplitter(Options{}, '-', ':').Name()
	if n1 != n2 || n1 != "separators(-:)" {
		t.Errorf("custom Name unstable: %q vs %q", n1, n2)
	}
}

func TestNGramSplitter(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		pad   bool
		value string
		want  []string
	}{
		{"bigrams", 2, false, "abc", []string{"ab", "bc"}},
		{"trigram exact", 3, false, "abc", []string{"abc"}},
		{"short value unpadded", 3, false, "ab", []string{"ab"}},
		{"padded bigrams", 2, true, "ab", []string{"#a", "ab", "b#"}},
		{"separator collapsing", 2, false, "a-b", []string{"a ", " b"}},
		{"empty", 2, false, "", nil},
		{"only separators", 2, false, "--", nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sp := NewNGramSplitter(tc.n, tc.pad, Options{})
			if got := sp.Split(tc.value); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Split(%q) = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

func TestNGramSplitterNames(t *testing.T) {
	if got := NewNGramSplitter(3, false, Options{}).Name(); got != "3-grams" {
		t.Errorf("Name = %q", got)
	}
	if got := NewNGramSplitter(2, true, Options{}).Name(); got != "2-grams(padded)" {
		t.Errorf("Name = %q", got)
	}
	if NewNGramSplitter(0, false, Options{}).N() != 1 {
		t.Error("n < 1 not clamped")
	}
}

func TestStats(t *testing.T) {
	sp := NewSeparatorSplitter(Options{})
	st := NewStats()
	st.ObserveSegments(sp.Split("ohm 63V ohm"))
	st.ObserveSegments(sp.Split("ohm T83"))
	if st.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", st.Distinct())
	}
	if st.Occurrences() != 5 {
		t.Errorf("Occurrences = %d, want 5", st.Occurrences())
	}
	if st.Count("ohm") != 3 {
		t.Errorf("Count(ohm) = %d, want 3", st.Count("ohm"))
	}
	st.ObserveSegments([]string{"x", "x"})
	if st.Count("x") != 2 {
		t.Errorf("Count(x) = %d after ObserveSegments", st.Count("x"))
	}
}

// Property: separator splitting never yields a segment containing a
// separator rune, concatenation order is preserved, and re-splitting a
// segment is the identity.
func TestSeparatorSplitterProperty(t *testing.T) {
	sp := NewSeparatorSplitter(Options{})
	f := func(value string) bool {
		segs := sp.Split(value)
		for _, seg := range segs {
			if seg == "" {
				return false
			}
			for _, r := range seg {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
			}
			again := sp.Split(seg)
			if len(again) != 1 || again[0] != seg {
				return false
			}
		}
		// Segments appear in value in order.
		idx := 0
		for _, seg := range segs {
			pos := strings.Index(value[idx:], seg)
			if pos < 0 {
				return false
			}
			idx += pos + len(seg)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: unpadded n-gram count of a separator-free ASCII value is
// max(1, len-n+1) and each gram has length n (or the whole value when
// shorter).
func TestNGramCountProperty(t *testing.T) {
	f := func(raw string, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		var b strings.Builder
		for _, r := range raw {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				b.WriteRune(r)
			}
		}
		value := b.String()
		runes := []rune(value)
		sp := NewNGramSplitter(n, false, Options{})
		grams := sp.Split(value)
		if len(runes) == 0 {
			return len(grams) == 0
		}
		if len(runes) < n {
			return len(grams) == 1 && grams[0] == value
		}
		if len(grams) != len(runes)-n+1 {
			return false
		}
		for _, g := range grams {
			if len([]rune(g)) != n {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
