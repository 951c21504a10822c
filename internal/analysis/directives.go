package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one `//tool:verb args` comment, the suppression/annotation
// mechanism of the monetlint suite (mirroring `//go:build`-style tool
// directives). Examples:
//
//	//ctxflow:edge process entry point
//	//lockblock:ok write lock intentionally serializes frame writes
//
// Everything after the verb is Args: the human reason.
type Directive struct {
	Tool string
	Verb string
	Args string
	Pos  token.Pos
}

// parseDirective parses a single comment into a Directive. A directive
// comment is a //-comment with no space after the slashes, a lowercase
// tool name, a colon, and a verb.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//") || strings.HasPrefix(text, "// ") {
		return Directive{}, false
	}
	body := text[2:]
	colon := strings.IndexByte(body, ':')
	if colon <= 0 {
		return Directive{}, false
	}
	tool := body[:colon]
	for _, r := range tool {
		if r < 'a' || r > 'z' {
			return Directive{}, false
		}
	}
	rest := body[colon+1:]
	verb, args, _ := strings.Cut(rest, " ")
	if verb == "" {
		return Directive{}, false
	}
	return Directive{Tool: tool, Verb: verb, Args: strings.TrimSpace(args), Pos: c.Slash}, true
}

// fileDirectives lazily indexes a file's directives by line number.
func (p *Pass) fileDirectives(f *ast.File) map[int][]Directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]Directive)
	}
	if byLine, ok := p.directives[f]; ok {
		return byLine
	}
	byLine := make(map[int][]Directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				line := p.Fset.Position(c.Slash).Line
				byLine[line] = append(byLine[line], d)
			}
		}
	}
	p.directives[f] = byLine
	return byLine
}

// Attached returns the directives for tool attached to node n: on the same
// line as n, or in the contiguous block of directive lines immediately
// above it (so several directives can stack over one statement).
func (p *Pass) Attached(n ast.Node, tool string) []Directive {
	f := p.FileOf(n.Pos())
	if f == nil {
		return nil
	}
	byLine := p.fileDirectives(f)
	line := p.Fset.Position(n.Pos()).Line
	var out []Directive
	for l := line - 1; l > 0 && len(byLine[l]) > 0; l-- {
		for _, d := range byLine[l] {
			if d.Tool == tool {
				out = append(out, d)
			}
		}
	}
	for _, d := range byLine[line] {
		if d.Tool == tool {
			out = append(out, d)
		}
	}
	return out
}

// FuncDirectives returns directives for tool in the doc comment of the
// function declaration enclosing pos, plus those attached to the
// declaration line itself.
func (p *Pass) FuncDirectives(pos token.Pos, tool string) []Directive {
	f := p.FileOf(pos)
	if f == nil {
		return nil
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		// A directive line directly above the declaration is both part of
		// fd.Doc and attached to fd's line; dedupe by position.
		var out []Directive
		seen := map[token.Pos]bool{}
		add := func(ds ...Directive) {
			for _, d := range ds {
				if !seen[d.Pos] {
					seen[d.Pos] = true
					out = append(out, d)
				}
			}
		}
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if d, ok := parseDirective(c); ok && d.Tool == tool {
					add(d)
				}
			}
		}
		add(p.Attached(fd, tool)...)
		return out
	}
	return nil
}

// HasDirective reports whether node n carries a reasoned tool:verb —
// attached to its line or declared on its enclosing function. This is the
// one place suppressions are recognized, and a bare directive is not one:
// every suppression in the tree says why it is there.
func (p *Pass) HasDirective(n ast.Node, tool, verb string) bool {
	for _, d := range append(p.Attached(n, tool), p.FuncDirectives(n.Pos(), tool)...) {
		if d.Verb == verb && d.Args != "" {
			return true
		}
	}
	return false
}
