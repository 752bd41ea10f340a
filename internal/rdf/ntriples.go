package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError reports a syntax error with its source position.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// NTriplesReader is a streaming N-Triples parser: it reads one
// statement at a time from an io.Reader in bounded memory (one line
// buffered at most), so arbitrarily large files never materialize as a
// graph. Comment lines (starting with '#') and blank lines are skipped.
type NTriplesReader struct {
	sc     *bufio.Scanner
	lineNo int
	err    error
}

// NewNTriplesReader returns a streaming reader over r. Lines up to 16MB
// are accepted (matching ReadNTriples).
func NewNTriplesReader(r io.Reader) *NTriplesReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &NTriplesReader{sc: sc}
}

// Line returns the 1-based line number of the statement (or error) the
// last Next call produced.
func (nr *NTriplesReader) Line() int { return nr.lineNo }

// Next returns the next statement. At the end of the input it returns
// io.EOF; a malformed line returns a *ParseError carrying the line and
// column, with the line consumed — the caller may keep calling Next to
// skip past bad lines, which is exactly what the bulk-ingest per-line
// error report does. I/O errors from the underlying reader are
// terminal.
func (nr *NTriplesReader) Next() (Triple, error) {
	if nr.err != nil {
		return Triple{}, nr.err
	}
	for nr.sc.Scan() {
		nr.lineNo++
		if err := checkUTF8(nr.sc.Bytes(), nr.lineNo); err != nil {
			return Triple{}, err
		}
		line := strings.TrimSpace(nr.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return parseNTriplesLine(line, nr.lineNo)
	}
	if err := nr.sc.Err(); err != nil {
		nr.err = fmt.Errorf("rdf: reading n-triples: %w", err)
	} else {
		nr.err = io.EOF
	}
	return Triple{}, nr.err
}

// checkUTF8 returns a *ParseError at the first byte of b that is not
// valid UTF-8, with b's first byte at line line, column 1, or nil when b
// is valid. RDF text is UTF-8, and a term holding an invalid byte would
// not survive a write: the writers would put it out as U+FFFD.
func checkUTF8(b []byte, line int) error {
	if utf8.Valid(b) {
		return nil
	}
	col := 1
	for i := 0; i < len(b); {
		r, n := utf8.DecodeRune(b[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			return &ParseError{Line: line, Col: col, Msg: "invalid UTF-8"}
		case b[i] == '\n':
			line, col = line+1, 1
		default:
			col += n
		}
		i += n
	}
	return nil
}

// ReadNTriples parses N-Triples from r into a new graph. Comment lines
// (starting with '#') and blank lines are skipped. Parsing stops at the
// first syntax error. It is the strict, materializing wrapper over
// NTriplesReader.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	nr := NewNTriplesReader(r)
	for {
		t, err := nr.Next()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return nil, err
		}
		g.Add(t)
	}
}

// parseNTriplesLine parses a single "<s> <p> <o> ." statement.
func parseNTriplesLine(line string, lineNo int) (Triple, error) {
	p := &ntParser{input: line, line: lineNo}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.skipSpace()
	if !p.consume('.') {
		return Triple{}, p.errf("expected '.' terminator")
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return Triple{}, p.errf("trailing content after '.'")
	}
	t := Triple{S: s, P: pr, O: o}
	if err := t.Validate(); err != nil {
		return Triple{}, &ParseError{Line: lineNo, Col: 1, Msg: err.Error()}
	}
	return t, nil
}

// ntParser is a cursor over one N-Triples line.
type ntParser struct {
	input string
	pos   int
	line  int
}

func (p *ntParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) peek() byte {
	if p.pos >= len(p.input) {
		return 0
	}
	return p.input[p.pos]
}

func (p *ntParser) consume(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	return false
}

// term parses one IRI, blank node or literal.
func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	case 0:
		return Term{}, p.errf("unexpected end of line, expected term")
	default:
		return Term{}, p.errf("unexpected character %q, expected term", p.peek())
	}
}

func (p *ntParser) iri() (Term, error) {
	p.pos++ // consume '<'
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] != '>' {
		p.pos++
	}
	if p.pos >= len(p.input) {
		return Term{}, p.errf("unterminated IRI")
	}
	raw := p.input[start:p.pos]
	p.pos++ // consume '>'
	iri, err := unescapeIRI(raw)
	if err != nil {
		return Term{}, p.errf("bad IRI escape: %v", err)
	}
	if iri == "" {
		return Term{}, p.errf("empty IRI")
	}
	return NewIRI(iri), nil
}

func (p *ntParser) blank() (Term, error) {
	if !strings.HasPrefix(p.input[p.pos:], "_:") {
		return Term{}, p.errf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.input) && isBlankLabelChar(p.input[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(p.input[start:p.pos]), nil
}

func isBlankLabelChar(c byte) bool {
	return c == '-' || c == '_' || c == '.' ||
		(c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}

func (p *ntParser) literal() (Term, error) {
	p.pos++ // consume opening quote
	var b strings.Builder
	for {
		if p.pos >= len(p.input) {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.input[p.pos]
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			r, n, err := decodeEscape(p.input[p.pos:])
			if err != nil {
				return Term{}, p.errf("bad escape: %v", err)
			}
			b.WriteRune(r)
			p.pos += n
			continue
		}
		b.WriteByte(c)
		p.pos++
	}
	lexical := b.String()
	switch {
	case p.consume('@'):
		start := p.pos
		for p.pos < len(p.input) && isLangTagChar(p.input[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lexical, p.input[start:p.pos]), nil
	case strings.HasPrefix(p.input[p.pos:], "^^"):
		p.pos += 2
		if p.peek() != '<' {
			return Term{}, p.errf("expected datatype IRI after ^^")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lexical, dt.Value), nil
	default:
		return NewLiteral(lexical), nil
	}
}

func isLangTagChar(c byte) bool {
	return c == '-' || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}

// decodeEscape decodes a backslash escape at the start of s, returning the
// rune and the number of input bytes consumed.
func decodeEscape(s string) (rune, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling backslash")
	}
	switch s[1] {
	case 't':
		return '\t', 2, nil
	case 'b':
		return '\b', 2, nil
	case 'n':
		return '\n', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'f':
		return '\f', 2, nil
	case '"':
		return '"', 2, nil
	case '\'':
		return '\'', 2, nil
	case '\\':
		return '\\', 2, nil
	case 'u':
		if len(s) < 6 {
			return 0, 0, fmt.Errorf("truncated \\u escape")
		}
		v, err := strconv.ParseUint(s[2:6], 16, 32)
		if err != nil || !utf8.ValidRune(rune(v)) {
			return 0, 0, fmt.Errorf("bad \\u escape %q", s[:6])
		}
		return rune(v), 6, nil
	case 'U':
		if len(s) < 10 {
			return 0, 0, fmt.Errorf("truncated \\U escape")
		}
		v, err := strconv.ParseUint(s[2:10], 16, 32)
		if err != nil || !utf8.ValidRune(rune(v)) {
			return 0, 0, fmt.Errorf("bad \\U escape %q", s[:10])
		}
		return rune(v), 10, nil
	default:
		return 0, 0, fmt.Errorf("unknown escape \\%c", s[1])
	}
}

// unescapeIRI resolves the \uXXXX and \UXXXXXXXX escapes of an IRI.
// An escape may not stand for a character the IRIREF production
// excludes (controls, space and <>"{}|^`\): the writers put IRIs out
// unescaped, so such a character would not read back as itself.
func unescapeIRI(s string) (string, error) {
	if !strings.Contains(s, "\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			i++
			continue
		}
		if i+1 < len(s) && s[i+1] != 'u' && s[i+1] != 'U' {
			return "", fmt.Errorf("escape \\%c in an IRI", s[i+1])
		}
		r, n, err := decodeEscape(s[i:])
		if err != nil {
			return "", err
		}
		if r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r) {
			return "", fmt.Errorf("escape %q stands for a character IRIs exclude", s[i:i+n])
		}
		b.WriteRune(r)
		i += n
	}
	return b.String(), nil
}

// unescapeUCHAR resolves every string escape in s, as a long Turtle
// literal holds them.
func unescapeUCHAR(s string) (string, error) {
	if !strings.Contains(s, "\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' {
			r, n, err := decodeEscape(s[i:])
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			i += n
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String(), nil
}

// WriteNTriples serializes the graph to w in deterministic (sorted) order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	ts := g.Triples()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	for _, t := range ts {
		if _, err := bw.WriteString(t.String()); err != nil {
			return fmt.Errorf("rdf: writing n-triples: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("rdf: writing n-triples: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("rdf: writing n-triples: %w", err)
	}
	return nil
}
