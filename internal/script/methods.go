package script

import (
	"slices"
	"strings"

	"repro/internal/core"
)

// getAttr resolves attribute access X.name: bound methods on builtin types,
// attributes and methods on native objects.
func (in *Interp) getAttr(x Value, name string, line int) (Value, error) {
	if o, ok := x.(*ObjectVal); ok {
		if v, ok := o.Attrs.GetStr(name); ok {
			return v, nil
		}
		if m, ok := o.Methods[name]; ok {
			return bi(o.Class+"."+name, m), nil
		}
	} else if m, typ := builtinMethod(x, name); m.fn != nil {
		return bi(typ+"."+name, func(in *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return m.call(in, name, x, args, kwargs)
		}), nil
	}
	return nil, in.rtErrf(line, "'%s' object has no attribute '%s'", x.TypeName(), name)
}

// method is a method of a builtin type, its receiver not yet applied.
type method struct {
	nargs int // positional arguments it takes exactly, or anyArgs if it checks itself
	fn    func(in *Interp, recv Value, args []Value, kwargs map[string]Value) (Value, error)
}

const anyArgs = -1

// methodOn adapts a method written against its concrete receiver type.
func methodOn[T Value](nargs int, m func(*Interp, T, []Value, map[string]Value) (Value, error)) method {
	return method{nargs, func(in *Interp, recv Value, args []Value, kwargs map[string]Value) (Value, error) {
		return m(in, recv.(T), args, kwargs)
	}}
}

// call checks the declared argument count and applies m to recv.
func (m method) call(in *Interp, name string, recv Value, args []Value, kwargs map[string]Value) (Value, error) {
	if m.nargs >= 0 && len(args) != m.nargs {
		return nil, argErr(name, [...]string{1: "takes exactly one argument", 2: "takes exactly two arguments"}[m.nargs])
	}
	return m.fn(in, recv, args, kwargs)
}

// builtinMethod looks name up in the method table of x's type.
func builtinMethod(x Value, name string) (method, string) {
	switch x.(type) {
	case *ListVal:
		return listMethods[name], "list"
	case *DictVal:
		return dictMethods[name], "dict"
	case StrVal:
		return strMethods[name], "str"
	}
	return method{}, ""
}

// The list methods. append, extend, sort, reverse and the reads work in
// whichever lane holds the list; the rest box it first (ListVal.Boxed).
var listMethods = map[string]method{
	"append": methodOn(1, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		l.push(unbox(args[0]))
		return None, nil
	}),
	"extend": methodOn(1, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		src, ok := args[0].(*ListVal)
		if !ok {
			items, err := toSlice(in, args[0])
			if err != nil {
				return nil, err
			}
			src = &ListVal{Items: items}
		}
		l.extend(src)
		return None, nil
	}),
	"insert": methodOn(2, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		i, ok := asInt(args[0])
		if !ok {
			return nil, argErr("insert", "index must be an integer")
		}
		n := int64(l.Len())
		if i < 0 {
			i += n
		}
		l.Items = slices.Insert(l.Boxed(), int(min(max(i, 0), n)), args[1])
		return None, nil
	}),
	"pop": methodOn(anyArgs, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		if l.Len() == 0 {
			return nil, core.Errorf(core.KindConstraint, "pop from empty list")
		}
		i := int64(l.Len() - 1)
		if len(args) == 1 {
			v, ok := asInt(args[0])
			if !ok {
				return nil, argErr("pop", "index must be an integer")
			}
			i = v
			if i < 0 {
				i += int64(l.Len())
			}
			if i < 0 || i >= int64(l.Len()) {
				return nil, core.Errorf(core.KindConstraint, "pop index out of range")
			}
		}
		v := l.Boxed()[i]
		l.Items = slices.Delete(l.Items, int(i), int(i)+1)
		return v, nil
	}),
	"remove": methodOn(1, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		if i := l.find(unbox(args[0])); i >= 0 {
			l.Items = slices.Delete(l.Boxed(), i, i+1)
			return None, nil
		}
		return nil, core.Errorf(core.KindConstraint, "list.remove(x): x not in list")
	}),
	"index": methodOn(1, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		if i := l.find(unbox(args[0])); i >= 0 {
			return IntVal(i), nil
		}
		return nil, core.Errorf(core.KindConstraint, "%s is not in list", args[0].Repr())
	}),
	"count": methodOn(1, func(in *Interp, l *ListVal, args []Value, _ map[string]Value) (Value, error) {
		n, x := int64(0), unbox(args[0])
		for i := 0; i < l.Len(); i++ {
			if equalVal(l.at(i), x) {
				n++
			}
		}
		return IntVal(n), nil
	}),
	"sort": methodOn(anyArgs, func(in *Interp, l *ListVal, args []Value, kwargs map[string]Value) (Value, error) {
		if !l.sortLane() {
			if err := SortValues(l.Boxed()); err != nil {
				return nil, err
			}
		}
		if rv, ok := kwargs["reverse"]; ok && Truthy(rv) {
			l.reverse()
		}
		return None, nil
	}),
	"reverse": methodOn(anyArgs, func(in *Interp, l *ListVal, _ []Value, _ map[string]Value) (Value, error) {
		l.reverse()
		return None, nil
	}),
	"copy": methodOn(anyArgs, func(in *Interp, l *ListVal, _ []Value, _ map[string]Value) (Value, error) {
		return l.slice(0, l.Len()), nil
	}),
}

var dictMethods = map[string]method{
	"keys": methodOn(anyArgs, func(in *Interp, d *DictVal, _ []Value, _ map[string]Value) (Value, error) {
		return &ListVal{Items: d.Keys()}, nil
	}),
	"values": methodOn(anyArgs, func(in *Interp, d *DictVal, _ []Value, _ map[string]Value) (Value, error) {
		return &ListVal{Items: d.Values()}, nil
	}),
	"items": methodOn(anyArgs, func(in *Interp, d *DictVal, _ []Value, _ map[string]Value) (Value, error) {
		items := d.Items()
		out := make([]Value, len(items))
		for i, kv := range items {
			out[i] = &TupleVal{Items: []Value{kv[0], kv[1]}}
		}
		return &ListVal{Items: out}, nil
	}),
	"get": methodOn(anyArgs, func(in *Interp, d *DictVal, args []Value, _ map[string]Value) (Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return nil, argErr("get", "takes 1 or 2 arguments")
		}
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, err
		}
		if ok {
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return None, nil
	}),
	"pop": methodOn(anyArgs, func(in *Interp, d *DictVal, args []Value, _ map[string]Value) (Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return nil, argErr("pop", "takes 1 or 2 arguments")
		}
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, err
		}
		if ok {
			if _, err := d.Delete(args[0]); err != nil {
				return nil, err
			}
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return nil, core.Errorf(core.KindConstraint, "KeyError: %s", args[0].Repr())
	}),
	"update": methodOn(1, func(in *Interp, d *DictVal, args []Value, _ map[string]Value) (Value, error) {
		src, ok := args[0].(*DictVal)
		if !ok {
			return nil, argErr("update", "argument must be a dict")
		}
		for _, kv := range src.Items() {
			if err := d.Set(kv[0], kv[1]); err != nil {
				return nil, err
			}
		}
		return None, nil
	}),
	"copy": methodOn(anyArgs, func(in *Interp, d *DictVal, _ []Value, _ map[string]Value) (Value, error) {
		out := NewDict()
		for _, kv := range d.Items() {
			if err := out.Set(kv[0], kv[1]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}),
}

var strMethods = map[string]method{
	"split": methodOn(anyArgs, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		var parts []string
		if len(args) == 0 {
			parts = strings.Fields(string(s))
		} else {
			sep, ok := args[0].(StrVal)
			if !ok {
				return nil, argErr("split", "separator must be a string")
			}
			parts = strings.Split(string(s), string(sep))
		}
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = StrVal(p)
		}
		return &ListVal{Items: out}, nil
	}),
	"join": methodOn(1, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		items, err := toSlice(in, args[0])
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(items))
		for i, it := range items {
			sv, ok := it.(StrVal)
			if !ok {
				return nil, core.Errorf(core.KindType,
					"sequence item %d: expected str instance, %s found", i, it.TypeName())
			}
			parts[i] = string(sv)
		}
		return StrVal(strings.Join(parts, string(s))), nil
	}),
	"strip": methodOn(anyArgs, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		cut := " \t\n\r"
		if len(args) == 1 {
			c, ok := args[0].(StrVal)
			if !ok {
				return nil, argErr("strip", "argument must be a string")
			}
			cut = string(c)
		}
		return StrVal(strings.Trim(string(s), cut)), nil
	}),
	"lstrip": methodOn(anyArgs, func(in *Interp, s StrVal, _ []Value, _ map[string]Value) (Value, error) {
		return StrVal(strings.TrimLeft(string(s), " \t\n\r")), nil
	}),
	"rstrip": methodOn(anyArgs, func(in *Interp, s StrVal, _ []Value, _ map[string]Value) (Value, error) {
		return StrVal(strings.TrimRight(string(s), " \t\n\r")), nil
	}),
	"upper": methodOn(anyArgs, func(in *Interp, s StrVal, _ []Value, _ map[string]Value) (Value, error) {
		return StrVal(strings.ToUpper(string(s))), nil
	}),
	"lower": methodOn(anyArgs, func(in *Interp, s StrVal, _ []Value, _ map[string]Value) (Value, error) {
		return StrVal(strings.ToLower(string(s))), nil
	}),
	"startswith": methodOn(1, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		p, ok := args[0].(StrVal)
		if !ok {
			return nil, argErr("startswith", "prefix must be a string")
		}
		return BoolVal(strings.HasPrefix(string(s), string(p))), nil
	}),
	"endswith": methodOn(1, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		p, ok := args[0].(StrVal)
		if !ok {
			return nil, argErr("endswith", "suffix must be a string")
		}
		return BoolVal(strings.HasSuffix(string(s), string(p))), nil
	}),
	"replace": methodOn(2, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		from, ok1 := args[0].(StrVal)
		to, ok2 := args[1].(StrVal)
		if !ok1 || !ok2 {
			return nil, argErr("replace", "arguments must be strings")
		}
		return StrVal(strings.ReplaceAll(string(s), string(from), string(to))), nil
	}),
	"find": methodOn(1, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		sub, ok := args[0].(StrVal)
		if !ok {
			return nil, argErr("find", "argument must be a string")
		}
		return IntVal(int64(strings.Index(string(s), string(sub)))), nil
	}),
	"count": methodOn(1, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		sub, ok := args[0].(StrVal)
		if !ok {
			return nil, argErr("count", "argument must be a string")
		}
		return IntVal(int64(strings.Count(string(s), string(sub)))), nil
	}),
	"format": methodOn(anyArgs, func(in *Interp, s StrVal, args []Value, _ map[string]Value) (Value, error) {
		out := string(s)
		for _, a := range args {
			out = strings.Replace(out, "{}", Str(a), 1)
		}
		return StrVal(out), nil
	}),
}
