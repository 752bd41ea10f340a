package rdf

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// ReadTurtle parses a practical subset of Turtle from r into a new graph.
//
// Supported: @prefix / PREFIX directives, @base / BASE (absolute IRIs
// only), prefixed names, the 'a' keyword, predicate lists (';'), object
// lists (','), blank node labels, anonymous blank nodes '[]' and property
// lists '[ p o ]', string literals with language tags and datatypes,
// integers, decimals, doubles and booleans as abbreviated literals, and
// comments. RDF collections "( ... )" are not supported.
//
// This subset is what the repository's fixtures and examples need; full
// interchange uses N-Triples.
func ReadTurtle(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rdf: reading turtle: %w", err)
	}
	if err := checkUTF8(data, 1); err != nil {
		return nil, err
	}
	p := &turtleParser{
		input:    string(data),
		line:     1,
		col:      1,
		graph:    NewGraph(),
		prefixes: map[string]string{},
	}
	if err := p.parse(); err != nil {
		return nil, err
	}
	return p.graph, nil
}

type turtleParser struct {
	input    string
	pos      int
	line     int
	col      int
	graph    *Graph
	prefixes map[string]string
	base     string
	blankSeq int
	// docLabels are the labels the input writes after "_:", read on the
	// first anonymous blank node; see anonLabel.
	docLabels map[string]bool
}

func (p *turtleParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.input) }

func (p *turtleParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.input[p.pos]
}

func (p *turtleParser) advance() byte {
	c := p.input[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

// skipWS consumes whitespace and comments.
func (p *turtleParser) skipWS() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.advance()
		case c == '#':
			for !p.eof() && p.peek() != '\n' {
				p.advance()
			}
		default:
			return
		}
	}
}

func (p *turtleParser) expect(c byte) error {
	if p.peek() != c {
		return p.errf("expected %q, found %q", c, p.peek())
	}
	p.advance()
	return nil
}

func (p *turtleParser) parse() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		if err := p.statement(); err != nil {
			return err
		}
	}
}

func (p *turtleParser) statement() error {
	if p.hasKeyword("@prefix") || p.hasKeyword("PREFIX") {
		return p.prefixDirective()
	}
	if p.hasKeyword("@base") || p.hasKeyword("BASE") {
		return p.baseDirective()
	}
	return p.triples()
}

// hasKeyword reports whether the input at the cursor starts with kw
// followed by whitespace; it performs case-sensitive matching for '@'
// directives and case-insensitive for SPARQL-style ones.
func (p *turtleParser) hasKeyword(kw string) bool {
	if len(p.input)-p.pos < len(kw) {
		return false
	}
	chunk := p.input[p.pos : p.pos+len(kw)]
	if kw[0] == '@' {
		if chunk != kw {
			return false
		}
	} else if !strings.EqualFold(chunk, kw) {
		return false
	}
	rest := p.input[p.pos+len(kw):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\n' || rest[0] == '\r' || rest[0] == '<'
}

func (p *turtleParser) consumeKeyword(kw string) {
	for range kw {
		p.advance()
	}
}

func (p *turtleParser) prefixDirective() error {
	sparql := p.hasKeyword("PREFIX")
	if sparql {
		p.consumeKeyword("PREFIX")
	} else {
		p.consumeKeyword("@prefix")
	}
	p.skipWS()
	name, err := p.prefixName()
	if err != nil {
		return err
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	if !sparql {
		p.skipWS()
		if err := p.expect('.'); err != nil {
			return err
		}
	}
	return nil
}

func (p *turtleParser) baseDirective() error {
	sparql := p.hasKeyword("BASE")
	if sparql {
		p.consumeKeyword("BASE")
	} else {
		p.consumeKeyword("@base")
	}
	p.skipWS()
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
	if !sparql {
		p.skipWS()
		if err := p.expect('.'); err != nil {
			return err
		}
	}
	return nil
}

// prefixName parses "name:" returning name (possibly empty).
func (p *turtleParser) prefixName() (string, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' && !unicode.IsSpace(rune(p.peek())) {
		p.advance()
	}
	name := p.input[start:p.pos]
	if err := p.expect(':'); err != nil {
		return "", err
	}
	return name, nil
}

func (p *turtleParser) triples() error {
	subj, err := p.subject()
	if err != nil {
		return err
	}
	p.skipWS()
	if err := p.predicateObjectList(subj); err != nil {
		return err
	}
	p.skipWS()
	return p.expect('.')
}

func (p *turtleParser) predicateObjectList(subj Term) error {
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.object()
			if err != nil {
				return err
			}
			t := Triple{S: subj, P: pred, O: obj}
			if err := t.Validate(); err != nil {
				return p.errf("%v", err)
			}
			p.graph.Add(t)
			p.skipWS()
			if p.peek() == ',' {
				p.advance()
				continue
			}
			break
		}
		if p.peek() == ';' {
			p.advance()
			p.skipWS()
			// Allow trailing ';' before '.' or ']'.
			if p.peek() == '.' || p.peek() == ']' {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *turtleParser) subject() (Term, error) {
	p.skipWS()
	switch {
	case p.peek() == '<':
		iri, err := p.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case strings.HasPrefix(p.input[p.pos:], "_:"):
		return p.blankLabel()
	case p.peek() == '[':
		return p.blankPropertyList()
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) predicate() (Term, error) {
	if p.peek() == 'a' {
		// 'a' keyword only when followed by whitespace or a term opener.
		if p.pos+1 >= len(p.input) || isTurtleTermBoundary(p.input[p.pos+1]) {
			p.advance()
			return TypeTerm, nil
		}
	}
	if p.peek() == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	}
	return p.prefixedName()
}

func isTurtleTermBoundary(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '<' || c == '"' || c == '[' || c == '_'
}

func (p *turtleParser) object() (Term, error) {
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case c == '"':
		return p.stringLiteral()
	case strings.HasPrefix(p.input[p.pos:], "_:"):
		return p.blankLabel()
	case c == '[':
		return p.blankPropertyList()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return p.numericLiteral()
	case p.hasBareword("true"):
		p.consumeKeyword("true")
		return NewTypedLiteral("true", XSDBoolean), nil
	case p.hasBareword("false"):
		p.consumeKeyword("false")
		return NewTypedLiteral("false", XSDBoolean), nil
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) hasBareword(w string) bool {
	if !strings.HasPrefix(p.input[p.pos:], w) {
		return false
	}
	rest := p.input[p.pos+len(w):]
	if rest == "" {
		return true
	}
	c := rest[0]
	return !(c == ':' || c == '_' || c == '-' ||
		(c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z'))
}

func (p *turtleParser) iriRef() (string, error) {
	if err := p.expect('<'); err != nil {
		return "", err
	}
	start := p.pos
	for !p.eof() && p.peek() != '>' {
		p.advance()
	}
	if p.eof() {
		return "", p.errf("unterminated IRI")
	}
	raw := p.input[start:p.pos]
	p.advance() // '>'
	iri, err := unescapeIRI(raw)
	if err != nil {
		return "", p.errf("bad IRI escape: %v", err)
	}
	if p.base != "" && !strings.Contains(iri, ":") {
		iri = p.base + iri
	}
	return iri, nil
}

func (p *turtleParser) blankLabel() (Term, error) {
	p.advance() // '_'
	p.advance() // ':'
	start := p.pos
	for !p.eof() && isBlankLabelChar(p.peek()) {
		p.advance()
	}
	if p.pos == start {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(p.input[start:p.pos]), nil
}

// blankPropertyList parses "[]" or "[ p o ; ... ]" returning the fresh
// blank node.
func (p *turtleParser) blankPropertyList() (Term, error) {
	p.advance() // '['
	node := NewBlank(p.anonLabel())
	p.skipWS()
	if p.peek() == ']' {
		p.advance()
		return node, nil
	}
	if err := p.predicateObjectList(node); err != nil {
		return Term{}, err
	}
	p.skipWS()
	if err := p.expect(']'); err != nil {
		return Term{}, err
	}
	return node, nil
}

// anonLabel returns a fresh label for an anonymous blank node: genN for
// the next N whose label the document does not write. Every "_:" of the
// input counts, even one inside a literal, so an anonymous node never
// merges with a labelled one.
func (p *turtleParser) anonLabel() string {
	if p.docLabels == nil {
		p.docLabels = map[string]bool{}
		for rest := p.input; ; {
			i := strings.Index(rest, "_:")
			if i < 0 {
				break
			}
			rest = rest[i+2:]
			n := 0
			for n < len(rest) && isBlankLabelChar(rest[n]) {
				n++
			}
			p.docLabels[rest[:n]] = true
			rest = rest[n:]
		}
	}
	for {
		p.blankSeq++
		if label := fmt.Sprintf("gen%d", p.blankSeq); !p.docLabels[label] {
			return label
		}
	}
}

func (p *turtleParser) stringLiteral() (Term, error) {
	// Long quoted form """...""" or short "...".
	long := strings.HasPrefix(p.input[p.pos:], `"""`)
	var lexical string
	if long {
		p.advance()
		p.advance()
		p.advance()
		start := p.pos
		idx := strings.Index(p.input[p.pos:], `"""`)
		if idx < 0 {
			return Term{}, p.errf("unterminated long literal")
		}
		for p.pos < start+idx {
			p.advance()
		}
		raw := p.input[start:p.pos]
		p.advance()
		p.advance()
		p.advance()
		var err error
		lexical, err = unescapeUCHAR(raw)
		if err != nil {
			return Term{}, p.errf("bad escape in literal: %v", err)
		}
	} else {
		p.advance() // opening quote
		var b strings.Builder
		for {
			if p.eof() {
				return Term{}, p.errf("unterminated literal")
			}
			c := p.peek()
			if c == '"' {
				p.advance()
				break
			}
			if c == '\\' {
				r, n, err := decodeEscape(p.input[p.pos:])
				if err != nil {
					return Term{}, p.errf("bad escape: %v", err)
				}
				b.WriteRune(r)
				for i := 0; i < n; i++ {
					p.advance()
				}
				continue
			}
			b.WriteByte(c)
			p.advance()
		}
		lexical = b.String()
	}
	switch {
	case p.peek() == '@':
		p.advance()
		start := p.pos
		for !p.eof() && isLangTagChar(p.peek()) {
			p.advance()
		}
		if p.pos == start {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lexical, p.input[start:p.pos]), nil
	case strings.HasPrefix(p.input[p.pos:], "^^"):
		p.advance()
		p.advance()
		var dt string
		if p.peek() == '<' {
			var err error
			dt, err = p.iriRef()
			if err != nil {
				return Term{}, err
			}
		} else {
			t, err := p.prefixedName()
			if err != nil {
				return Term{}, err
			}
			dt = t.Value
		}
		return NewTypedLiteral(lexical, dt), nil
	default:
		return NewLiteral(lexical), nil
	}
}

func (p *turtleParser) numericLiteral() (Term, error) {
	start := p.pos
	if p.peek() == '+' || p.peek() == '-' {
		p.advance()
	}
	digits := 0
	for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
		p.advance()
		digits++
	}
	isDecimal := false
	if p.peek() == '.' && p.pos+1 < len(p.input) && p.input[p.pos+1] >= '0' && p.input[p.pos+1] <= '9' {
		isDecimal = true
		p.advance()
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.advance()
			digits++
		}
	}
	isDouble := false
	if p.peek() == 'e' || p.peek() == 'E' {
		isDouble = true
		p.advance()
		if p.peek() == '+' || p.peek() == '-' {
			p.advance()
		}
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.advance()
		}
	}
	if digits == 0 {
		return Term{}, p.errf("malformed numeric literal")
	}
	lex := p.input[start:p.pos]
	switch {
	case isDouble:
		return NewTypedLiteral(lex, XSDDouble), nil
	case isDecimal:
		return NewTypedLiteral(lex, XSDDecimal), nil
	default:
		return NewTypedLiteral(lex, XSDInteger), nil
	}
}

// prefixedName parses "prefix:local" resolving against declared prefixes.
func (p *turtleParser) prefixedName() (Term, error) {
	start := p.pos
	for !p.eof() && isPNChar(p.peek()) {
		p.advance()
	}
	if p.peek() != ':' {
		return Term{}, p.errf("expected prefixed name")
	}
	prefix := p.input[start:p.pos]
	p.advance() // ':'
	localStart := p.pos
	for !p.eof() && isPNChar(p.peek()) {
		p.advance()
	}
	local := p.input[localStart:p.pos]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	return NewIRI(ns + local), nil
}

func isPNChar(c byte) bool {
	return c == '-' || c == '_' || c == '.' || c == '%' ||
		(c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
}
