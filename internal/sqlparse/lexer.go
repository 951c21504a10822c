// Package sqlparse implements the SQL dialect of the embedded MonetDB-like
// engine: DDL for tables and Python UDFs (CREATE FUNCTION ... LANGUAGE
// PYTHON { body }), DML (INSERT, COPY INTO), and SELECT queries with UDF
// calls, table functions, aggregates and table-valued subquery arguments —
// everything the paper's listings and the devUDF workflow exercise.
package sqlparse

import (
	"strings"
	"unicode/utf8"

	"repro/internal/core"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString // '...' literal, decoded
	tOp
	tBody // { ... } UDF body, raw with outer braces stripped
)

type token struct {
	kind tokKind
	// quoted marks a "double-quoted" identifier: never a keyword, and
	// allowed to spell reserved words.
	quoted bool
	pos    int // byte offset, for error messages
	lit    string
}

// sqlKeywords is consulted for error messages only; the parser matches
// keywords case-insensitively by spelling.
type lexer struct {
	src string
	pos int
}

// errf is a syntax error at the token being lexed: every lexing error
// leaves lx.pos at the token's start.
func (lx *lexer) errf(format string, args ...any) error {
	return syntaxErr(lx.src, lx.pos, format, args...)
}

// syntaxErr is a syntax error that ends with the line and column of byte
// offset pos in src. Columns count runes, and the end of the text is one
// past its last rune.
func syntaxErr(src string, pos int, format string, args ...any) error {
	line := 1 + strings.Count(src[:pos], "\n")
	col := 1 + utf8.RuneCountInString(src[strings.LastIndexByte(src[:pos], '\n')+1:pos])
	return core.Errorf(core.KindSyntax, "SQL: "+format+" at line %d, column %d", append(args, line, col)...)
}

// lex tokenizes the whole statement.
func (lx *lexer) lex() ([]token, error) {
	var toks []token
	for {
		t, err := lx.scan()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

// scan reads the next token, tEOF at the end of the input. It allocates
// nothing unless a quoted token holds an escaped quote. The UDF body
// `{ ... }` is captured as a single tBody token with balanced-brace scanning
// that respects PyLite string literals (dict literals inside UDF bodies
// contain braces).
func (lx *lexer) scan() (token, error) {
	lx.skipSpace()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case isSQLIdentStart(c):
		return token{kind: tIdent, lit: lx.lexIdent(), pos: start}, nil
	case isSQLDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isSQLDigit(lx.src[lx.pos+1])):
		return token{kind: tNumber, lit: lx.lexNumber(), pos: start}, nil
	case c == '\'':
		s, err := lx.lexQuoted("string literal")
		return token{kind: tString, lit: s, pos: start}, err
	case c == '"':
		s, err := lx.lexQuoted("quoted identifier")
		return token{kind: tIdent, lit: s, pos: start, quoted: true}, err
	case c == '{':
		body, err := lx.lexBody()
		return token{kind: tBody, lit: body, pos: start}, err
	default:
		op, err := lx.lexOp()
		return token{kind: tOp, lit: op, pos: start}, err
	}
}

// skipSpace steps over whitespace and -- comments. Most tokens follow one
// space or none, which takes two tests and no loop.
func (lx *lexer) skipSpace() {
	if lx.pos < len(lx.src) && lx.src[lx.pos] == ' ' {
		lx.pos++
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] <= ' ' || lx.src[lx.pos] == '-') {
		lx.skipBlank()
	}
}

func (lx *lexer) skipBlank() {
	src, i := lx.src, lx.pos
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-': // -- line comment
			for i < len(src) && src[i] != '\n' {
				i++
			}
		default:
			lx.pos = i
			return
		}
	}
	lx.pos = i
}

// lexQuoted reads a token quoted by the character at lx.pos, in which a
// doubled quote stands for one: a '...' string or a "..." identifier. The
// text is a slice of the source unless it held an escape.
func (lx *lexer) lexQuoted(what string) (string, error) {
	q := lx.src[lx.pos]
	start := lx.pos + 1
	escaped := false
	for i := start; i < len(lx.src); i++ {
		if lx.src[i] != q {
			continue
		}
		if i+1 < len(lx.src) && lx.src[i+1] == q {
			escaped = true
			i++
			continue
		}
		lx.pos = i + 1
		s := lx.src[start:i]
		if escaped {
			one := lx.src[i : i+1]
			s = strings.ReplaceAll(s, one+one, one)
		}
		return s, nil
	}
	return "", lx.errf("unterminated %s", what)
}

func (lx *lexer) lexNumber() string {
	start := lx.pos
	for lx.pos < len(lx.src) && (isSQLDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '.') {
		lx.pos++
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos < len(lx.src) && isSQLDigit(lx.src[lx.pos]) {
			for lx.pos < len(lx.src) && isSQLDigit(lx.src[lx.pos]) {
				lx.pos++
			}
		} else {
			lx.pos = save
		}
	}
	return lx.src[start:lx.pos]
}

func (lx *lexer) lexIdent() string {
	src, i := lx.src, lx.pos
	for i < len(src) && isSQLIdentCont(src[i]) {
		i++
	}
	start := lx.pos
	lx.pos = i
	return src[start:i]
}

func (lx *lexer) lexOp() (string, error) {
	if rest := lx.src[lx.pos:]; len(rest) >= 2 {
		switch op := rest[:2]; op {
		case "<>", "<=", ">=", "!=", "||":
			lx.pos += 2
			return op, nil
		}
	}
	c := lx.src[lx.pos]
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '(', ')', ',', '.', ';', ':', '?':
		lx.pos++
		return lx.src[lx.pos-1 : lx.pos], nil
	case '$':
		// numbered placeholder: '$' immediately followed by digits; the
		// whole spelling travels as one op token ("$3") so the parser can
		// validate the number with its position.
		j := lx.pos + 1
		for j < len(lx.src) && isSQLDigit(lx.src[j]) {
			j++
		}
		if j == lx.pos+1 {
			return "", lx.errf("expected digits after '$' (numbered placeholder is $1, $2, ...)")
		}
		op := lx.src[lx.pos:j]
		lx.pos = j
		return op, nil
	}
	return "", lx.errf("unexpected character %q", string(c))
}

// lexBody captures a balanced { ... } block, skipping PyLite string
// literals so that braces inside them do not confuse the balance count.
func (lx *lexer) lexBody() (string, error) {
	depth := 0
	start := lx.pos
	i := lx.pos
	for i < len(lx.src) {
		c := lx.src[i]
		switch c {
		case '{':
			depth++
			i++
		case '}':
			depth--
			i++
			if depth == 0 {
				lx.pos = i
				return lx.src[start+1 : i-1], nil
			}
		case '\'', '"':
			q := c
			// triple-quoted?
			if strings.HasPrefix(lx.src[i:], strings.Repeat(string(q), 3)) {
				end := strings.Index(lx.src[i+3:], strings.Repeat(string(q), 3))
				if end < 0 {
					return "", lx.errf("unterminated string inside UDF body")
				}
				i += 3 + end + 3
				continue
			}
			i++
			for i < len(lx.src) && lx.src[i] != q {
				if lx.src[i] == '\\' {
					i++
				}
				i++
			}
			if i >= len(lx.src) {
				return "", lx.errf("unterminated string inside UDF body")
			}
			i++
		case '#':
			for i < len(lx.src) && lx.src[i] != '\n' {
				i++
			}
		default:
			i++
		}
	}
	return "", lx.errf("unterminated UDF body: missing '}'")
}

func isSQLDigit(c byte) bool { return c >= '0' && c <= '9' }
func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isSQLIdentCont(c byte) bool { return isSQLIdentStart(c) || isSQLDigit(c) }
