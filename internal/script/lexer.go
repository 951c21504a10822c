package script

import (
	"strings"

	"repro/internal/core"
)

// Lexer converts PyLite source into a token stream, synthesizing
// NEWLINE/INDENT/DEDENT tokens from physical layout. Blank lines and
// comment-only lines produce no tokens; newlines inside (), [] and {} are
// implicit line joins, as in Python.
type Lexer struct {
	src    string
	pos    int
	line   int
	col    int
	indent []int // indentation stack, always starts with 0
	paren  int   // bracket nesting depth; >0 suppresses NEWLINE
	pend   []Token
	atBOL  bool // at beginning of a logical line
	eofed  bool
}

// NewLexer returns a lexer over src. The filename is only used for error
// messages raised later by the parser.
func NewLexer(src string) *Lexer {
	// Normalize line endings so the column math stays simple.
	src = strings.ReplaceAll(src, "\r\n", "\n")
	return &Lexer{src: src, line: 1, col: 1, indent: []int{0}, atBOL: true}
}

func (lx *Lexer) errf(format string, args ...any) error {
	return core.Errorf(core.KindSyntax, "line %d: "+format, append([]any{lx.line}, args...)...)
}

// Tokens lexes the whole input. It returns the complete token list ending
// with TokEOF, or the first lexical error.
func (lx *Lexer) Tokens() ([]Token, error) {
	toks := make([]Token, 0, len(lx.src)/4+4) // a token spans ~4 bytes of typical source
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if len(lx.pend) > 0 {
		t := lx.pend[0]
		lx.pend = append(lx.pend[:0], lx.pend[1:]...) // keep the array for the next run
		return t, nil
	}
	if lx.atBOL {
		if err := lx.handleIndent(); err != nil {
			return Token{}, err
		}
		if len(lx.pend) > 0 {
			return lx.Next()
		}
	}
	lx.skipSpacesAndComments()
	if lx.pos >= len(lx.src) {
		return lx.finish()
	}
	c := lx.src[lx.pos]
	switch {
	case c == '\n':
		lx.advance()
		if lx.paren > 0 {
			return lx.Next() // implicit line join inside brackets
		}
		lx.atBOL = true
		return Token{Kind: TokNewline, Line: lx.line - 1, Col: lx.col}, nil
	case c == '\\' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\n':
		lx.advance()
		lx.advance()
		return lx.Next() // explicit line join
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1])):
		return lx.lexNumber()
	case c == '"' || c == '\'':
		return lx.lexString()
	case isNameStart(c):
		return lx.lexName()
	default:
		return lx.lexOp()
	}
}

// finish emits pending DEDENTs and the final EOF.
func (lx *Lexer) finish() (Token, error) {
	if !lx.eofed {
		lx.eofed = true
		// close the last logical line
		lx.pend = append(lx.pend, Token{Kind: TokNewline, Line: lx.line, Col: lx.col})
		for len(lx.indent) > 1 {
			lx.indent = lx.indent[:len(lx.indent)-1]
			lx.pend = append(lx.pend, Token{Kind: TokDedent, Line: lx.line, Col: 1})
		}
		lx.pend = append(lx.pend, Token{Kind: TokEOF, Line: lx.line, Col: lx.col})
		return lx.Next()
	}
	return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
}

// handleIndent measures leading whitespace at the beginning of a logical
// line and emits INDENT/DEDENT tokens. Blank and comment-only lines are
// skipped entirely.
func (lx *Lexer) handleIndent() error {
	for {
		start := lx.pos
		width := 0
		for lx.pos < len(lx.src) {
			switch lx.src[lx.pos] {
			case ' ':
				width++
				lx.advance()
			case '\t':
				width += 8 - width%8
				lx.advance()
			default:
				goto measured
			}
		}
	measured:
		if lx.pos >= len(lx.src) {
			lx.atBOL = false
			return nil
		}
		if lx.src[lx.pos] == '\n' {
			lx.advance()
			continue // blank line
		}
		if lx.src[lx.pos] == '#' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
			continue
		}
		_ = start
		lx.atBOL = false
		cur := lx.indent[len(lx.indent)-1]
		switch {
		case width > cur:
			lx.indent = append(lx.indent, width)
			lx.pend = append(lx.pend, Token{Kind: TokIndent, Line: lx.line, Col: 1})
		case width < cur:
			for len(lx.indent) > 1 && lx.indent[len(lx.indent)-1] > width {
				lx.indent = lx.indent[:len(lx.indent)-1]
				lx.pend = append(lx.pend, Token{Kind: TokDedent, Line: lx.line, Col: 1})
			}
			if lx.indent[len(lx.indent)-1] != width {
				return lx.errf("unindent does not match any outer indentation level")
			}
		}
		return nil
	}
}

func (lx *Lexer) skipSpacesAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' {
			lx.advance()
			continue
		}
		if c == '#' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
			continue
		}
		return
	}
}

func (lx *Lexer) advance() {
	if lx.pos < len(lx.src) {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.pos++
	}
}

func (lx *Lexer) lexNumber() (Token, error) {
	startLine, startCol := lx.line, lx.col
	start := lx.pos
	isFloat := false
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.advance()
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		// not a method call on an int literal: 1.foo is invalid anyway
		isFloat = true
		lx.advance()
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.advance()
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.advance()
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.advance()
		}
		if lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			isFloat = true
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.advance()
			}
		} else {
			lx.pos = save // 'e' belongs to a following name
		}
	}
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Token{Kind: kind, Lit: lx.src[start:lx.pos], Line: startLine, Col: startCol}, nil
}

func (lx *Lexer) lexString() (Token, error) {
	startLine, startCol := lx.line, lx.col
	quote := lx.src[lx.pos]
	closing := lx.src[lx.pos : lx.pos+1]
	if lx.pos+2 < len(lx.src) && lx.src[lx.pos+1] == quote && lx.src[lx.pos+2] == quote {
		closing = lx.src[lx.pos : lx.pos+3]
	}
	for range closing {
		lx.advance()
	}
	start := lx.pos
	if len(closing) == 3 { // triple-quoted: raw, and may span lines
		end := strings.Index(lx.src[start:], closing)
		if end < 0 {
			for lx.pos < len(lx.src) {
				lx.advance()
			}
			return Token{}, lx.errf("unterminated triple-quoted string")
		}
		for lx.pos < start+end+3 {
			lx.advance()
		}
		return Token{Kind: TokString, Lit: lx.src[start : start+end], Line: startLine, Col: startCol, EndLine: lx.line}, nil
	}
	var sb *strings.Builder // nil until an escape makes the value differ from the source
	for {
		if lx.pos >= len(lx.src) || lx.src[lx.pos] == '\n' {
			return Token{}, lx.errf("unterminated string literal")
		}
		c := lx.src[lx.pos]
		if c == quote {
			lit := lx.src[start:lx.pos]
			if sb != nil {
				lit = sb.String()
			}
			lx.advance()
			return Token{Kind: TokString, Lit: lit, Line: startLine, Col: startCol, EndLine: lx.line}, nil
		}
		if c == '\\' && lx.pos+1 < len(lx.src) {
			if sb == nil {
				sb = &strings.Builder{}
				sb.WriteString(lx.src[start:lx.pos])
			}
			lx.advance()
			esc := lx.src[lx.pos]
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			case '\'':
				sb.WriteByte('\'')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			default:
				sb.WriteByte('\\')
				sb.WriteByte(esc)
			}
			lx.advance()
			continue
		}
		if sb != nil {
			sb.WriteByte(c)
		}
		lx.advance()
	}
}

func (lx *Lexer) lexName() (Token, error) {
	startLine, startCol := lx.line, lx.col
	start := lx.pos
	for lx.pos < len(lx.src) && isNameCont(lx.src[lx.pos]) {
		lx.pos++ // a name holds no newline
	}
	lx.col += lx.pos - start
	lit := lx.src[start:lx.pos]
	if keywords[lit] {
		return Token{Kind: TokKeyword, Lit: lit, Line: startLine, Col: startCol}, nil
	}
	return Token{Kind: TokName, Lit: lit, Line: startLine, Col: startCol}, nil
}

// multi-character operators, longest first.
var multiOps = []string{
	"**=", "//=", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
	"**", "//", "->",
}

func (lx *Lexer) lexOp() (Token, error) {
	startLine, startCol := lx.line, lx.col
	rest := lx.src[lx.pos:]
	// Every multi-character operator's second character is one of these.
	for _, op := range multiOps {
		if len(rest) < 2 || !strings.ContainsRune("*/=>", rune(rest[1])) {
			break
		}
		if strings.HasPrefix(rest, op) {
			for range op {
				lx.advance()
			}
			return Token{Kind: TokOp, Lit: op, Line: startLine, Col: startCol}, nil
		}
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', '[', '{':
		lx.paren++
	case ')', ']', '}':
		if lx.paren > 0 {
			lx.paren--
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '(', ')', '[', ']', '{', '}',
		',', ':', '.', ';', '@', '&', '|', '^', '~':
		lx.advance()
		return Token{Kind: TokOp, Lit: rest[:1], Line: startLine, Col: startCol}, nil
	}
	return Token{}, lx.errf("unexpected character %q", string(c))
}

func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isNameStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isNameCont(c byte) bool  { return isNameStart(c) || isDigit(c) }
