package sqlparse

import (
	"encoding/binary"

	"repro/internal/storage"
)

// Lit is one literal token: a number as written, or a string unquoted, and
// the type the parser gives it — DOUBLE for a number with '.', 'e' or 'E'
// in it, INTEGER for any other, STRING for a string. NULL, TRUE and FALSE
// are keywords, not literals.
type Lit struct {
	Kind storage.Type
	Text string
}

func litOf(t token) Lit {
	if t.kind == tString {
		return Lit{storage.TStr, t.lit}
	}
	for i := 0; i < len(t.lit); i++ {
		switch t.lit[i] {
		case '.', 'e', 'E':
			return Lit{storage.TFloat, t.lit}
		}
	}
	return Lit{storage.TInt, t.lit}
}

// Shape is a statement's text with its literals lifted out: Key holds the
// text as written between them, each piece behind its length, and each
// literal's kind; Lits holds the literals. Surrounding whitespace and
// trailing ';' are not part of Key. The lexer reads forward only, so texts
// with equal Keys parse alike but for the values of their literals. Scan
// reuses both buffers, so it allocates nothing once they fit.
type Shape struct {
	Key  []byte
	Lits []Lit
}

// Scan shapes sql, replacing what sh held. Its error is the one Parse
// reports for a text that does not lex.
func (sh *Shape) Scan(sql string) error {
	sh.Key, sh.Lits = sh.Key[:0], sh.Lits[:0]
	lx := lexer{src: sql}
	lx.skipSpace()
	// The text since the last literal runs from from to the end of its last
	// token that is not a ';'.
	from, end := lx.pos, lx.pos
	for {
		t, err := lx.scan()
		if err != nil {
			return err
		}
		switch {
		case t.kind == tEOF:
			sh.Key = appendPiece(sh.Key, sql[from:end])
			return nil
		case t.kind == tNumber || t.kind == tString:
			l := litOf(t)
			sh.Key = append(appendPiece(sh.Key, sql[from:t.pos]), byte(l.Kind))
			sh.Lits = append(sh.Lits, l)
			from, end = lx.pos, lx.pos
		case t.kind != tOp || t.lit != ";":
			end = lx.pos
		}
	}
}

func appendPiece(key []byte, text string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(text))), text...)
}

// Parameterize parses sql as Parse does and turns every literal in a value
// position into a numbered placeholder, numbered after the text's own. For
// each literal of the text's Shape, in order, slots holds the index of the
// placeholder that replaced it, or -1 for a literal kept as syntax: an ORDER
// BY position, a LIMIT, a COPY path, or one of the first syntaxArgs(call)
// arguments of a call.
func Parameterize(sql string, syntaxArgs func(*FuncCall) int) (st Statement, slots []int, err error) {
	p := new(parser)
	if st, err = p.one(sql); err != nil {
		return nil, nil, err
	}
	slot := make(map[Expr]int, len(p.lits))
	slots = make([]int, len(p.lits))
	for i, e := range p.lits {
		slots[i], slot[e] = -1, i // Edit never asks for nil
	}
	next := NumParams(st)
	Edit(st, func(e Expr) (Expr, bool) {
		if call, ok := e.(*FuncCall); ok {
			for _, a := range call.Args[:min(len(call.Args), syntaxArgs(call))] {
				delete(slot, a)
			}
		}
		i, ok := slot[e]
		if !ok {
			return e, true
		}
		slots[i] = next
		next++
		return &Placeholder{Index: slots[i], Numbered: true}, true
	})
	return st, slots, nil
}
