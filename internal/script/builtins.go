package script

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

func bi(name string, fn BuiltinFunc) *BuiltinVal { return &BuiltinVal{Name: name, Fn: fn} }

// laned is a builtin written once, against unboxed arguments; called with
// Values (from Go, or with keyword arguments) it unboxes them first.
func laned(name string, fn laneFunc) *BuiltinVal {
	return &BuiltinVal{Name: name, lane: fn, Fn: func(in *Interp, args []Value, _ map[string]Value) (Value, error) {
		vs := make([]val, len(args))
		for i, a := range args {
			vs[i] = unbox(a)
		}
		v, err := fn(in, vs)
		if err != nil {
			return nil, err
		}
		return v.box(), nil
	}}
}

func argErr(name string, want string) error {
	return core.Errorf(core.KindType, "%s() %s", name, want)
}

// builtinTable holds the builtins, which are stateless and shared by every
// interpreter; the resolve pass binds builtin names to indices into it.
var (
	builtinTable []*BuiltinVal
	builtinIndex = map[string]int{}
)

// Filled at init, not by an initializer: the builtins reach the evaluator,
// which reads the table.
func init() {
	add := func(b *BuiltinVal) {
		builtinIndex[b.Name] = len(builtinTable)
		builtinTable = append(builtinTable, b)
	}
	for name, fn := range map[string]BuiltinFunc{
		"range": biRange, "print": biPrint, "sum": biSum, "str": biStr, "bool": biBool, "list": biList,
		"dict": biDict, "tuple": biTuple, "sorted": biSorted, "reversed": biReversed,
		"enumerate": biEnumerate, "zip": biZip, "type": biType, "repr": biRepr,
		"open": biOpen, "Exception": biException, "ValueError": biException, "TypeError": biException,
		"isinstance": biIsinstance,
	} {
		add(bi(name, fn))
	}
	// The numeric builtins a UDF's loop calls.
	for name, fn := range map[string]laneFunc{
		"len": biLen, "abs": biAbs, "int": biInt, "float": biFloat, "round": biRound,
		"min": func(in *Interp, args []val) (val, error) { return extreme(in, "min", args, false) },
		"max": func(in *Interp, args []val) (val, error) { return extreme(in, "max", args, true) },
	} {
		add(laned(name, fn))
	}
}

func seqLen(v Value) (int64, bool) {
	switch v := v.(type) {
	case *ListVal:
		return int64(v.Len()), true
	case *TupleVal:
		return int64(len(v.Items)), true
	case StrVal:
		return int64(len([]rune(string(v)))), true
	case BytesVal:
		return int64(len(v)), true
	case *DictVal:
		return int64(v.Len()), true
	case RangeVal:
		return v.Len(), true
	default:
		return 0, false
	}
}

func biLen(in *Interp, args []val) (val, error) {
	if len(args) != 1 {
		return val{}, argErr("len", "takes exactly one argument")
	}
	if n, ok := seqLen(args[0].ref); ok {
		return intV(n), nil
	}
	return val{}, core.Errorf(core.KindType, "object of type '%s' has no len()", args[0].typeName())
}

func biRange(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	ints := make([]int64, len(args))
	for i, a := range args {
		v, ok := asInt(a)
		if !ok {
			return nil, argErr("range", "arguments must be integers")
		}
		ints[i] = v
	}
	switch len(ints) {
	case 1:
		return RangeVal{0, ints[0], 1}, nil
	case 2:
		return RangeVal{ints[0], ints[1], 1}, nil
	case 3:
		if ints[2] == 0 {
			return nil, argErr("range", "step argument must not be zero")
		}
		return RangeVal{ints[0], ints[1], ints[2]}, nil
	default:
		return nil, argErr("range", "expects 1 to 3 arguments")
	}
}

func biPrint(in *Interp, args []Value, kwargs map[string]Value) (Value, error) {
	sep, end := " ", "\n"
	if v, ok := kwargs["sep"]; ok {
		sep = Str(v)
	}
	if v, ok := kwargs["end"]; ok {
		end = Str(v)
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = Str(a)
	}
	fmt.Fprint(in.Stdout, strings.Join(parts, sep)+end)
	return None, nil
}

// cells is seq for a builtin. A builtin's loop counts no steps, so it must
// not be longer than what the builtin could have been handed as a list: a
// range too large to materialize is refused here too.
func (in *Interp) cells(v Value) (seq, error) {
	if r, ok := v.(RangeVal); ok {
		if err := r.materialize(); err != nil {
			return seq{}, in.rtErrf(0, "%s", errMsg(err))
		}
	}
	return in.seq(v, 0)
}

// toSlice copies an iterable's elements into a slice the caller owns.
func toSlice(in *Interp, v Value) ([]Value, error) {
	items, err := in.items(v, 0)
	return append([]Value(nil), items...), err
}

func biSum(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, argErr("sum", "takes 1 or 2 arguments")
	}
	s, err := in.cells(args[0])
	if err != nil {
		return nil, err
	}
	isFloat := false
	var iacc int64
	var facc float64
	if len(args) == 2 {
		switch s := args[1].(type) {
		case IntVal:
			iacc = int64(s)
		case FloatVal:
			isFloat, facc = true, float64(s)
		default:
			return nil, argErr("sum", "start must be a number")
		}
	}
	for it, ok := s.next(); ok; it, ok = s.next() {
		if it.kind == kFloat && !isFloat {
			isFloat, facc = true, float64(iacc)
		}
		switch n, isInt := it.asInt(); {
		case isInt && !isFloat: // ints and bools
			iacc += n
		case it.kind != kRef || isInt:
			f, _ := it.asFloat()
			facc += f
		default:
			return nil, core.Errorf(core.KindType,
				"unsupported operand type(s) for +: 'int' and '%s'", it.typeName())
		}
	}
	if isFloat {
		return FloatVal(facc), nil
	}
	return IntVal(iacc), nil
}

// extreme is min and max: of one iterable, or of two or more arguments.
func extreme(in *Interp, name string, args []val, wantMax bool) (val, error) {
	if len(args) == 0 {
		return val{}, argErr(name, "expected at least 1 argument")
	}
	var best val
	consider := func(it val) error {
		if !best.bound() {
			best = it
			return nil
		}
		c, err := cmpVal(it, best)
		if (wantMax && c > 0) || (!wantMax && c < 0) {
			best = it
		}
		return err
	}
	if len(args) == 1 {
		s, err := in.cells(args[0].box())
		if err != nil {
			return val{}, err
		}
		for it, ok := s.next(); ok; it, ok = s.next() {
			if err := consider(it); err != nil {
				return val{}, err
			}
		}
	} else {
		for _, it := range args {
			if err := consider(it); err != nil {
				return val{}, err
			}
		}
	}
	if !best.bound() {
		return val{}, core.Errorf(core.KindConstraint, "%s() arg is an empty sequence", name)
	}
	return best, nil
}

func biAbs(in *Interp, args []val) (val, error) {
	if len(args) != 1 {
		return val{}, argErr("abs", "takes exactly one argument")
	}
	switch v := args[0]; v.kind {
	case kInt:
		if v.int() < 0 {
			return intV(-v.int()), nil
		}
		return v, nil
	case kFloat:
		return floatV(math.Abs(v.float())), nil
	}
	if b, ok := args[0].ref.(BoolVal); ok {
		n, _ := asInt(b)
		return intV(n), nil
	}
	return val{}, core.Errorf(core.KindType, "bad operand type for abs(): '%s'", args[0].typeName())
}

func biInt(in *Interp, args []val) (val, error) {
	if len(args) == 0 {
		return intV(0), nil
	}
	if args[0].kind == kFloat {
		return intV(int64(math.Trunc(args[0].float()))), nil
	}
	if n, ok := args[0].asInt(); ok { // ints and bools
		return intV(n), nil
	}
	if v, ok := args[0].ref.(StrVal); ok {
		s := strings.TrimSpace(string(v))
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return val{}, core.Errorf(core.KindType,
				"invalid literal for int() with base 10: %q", string(v))
		}
		return intV(n), nil
	}
	return val{}, core.Errorf(core.KindType,
		"int() argument must be a string or a number, not '%s'", args[0].typeName())
}

func biFloat(in *Interp, args []val) (val, error) {
	if len(args) == 0 {
		return floatV(0), nil
	}
	if f, ok := args[0].asFloat(); ok { // ints, floats and bools
		return floatV(f), nil
	}
	if v, ok := args[0].ref.(StrVal); ok {
		f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
		if err != nil {
			return val{}, core.Errorf(core.KindType, "could not convert string to float: %q", string(v))
		}
		return floatV(f), nil
	}
	return val{}, core.Errorf(core.KindType,
		"float() argument must be a string or a number, not '%s'", args[0].typeName())
}

func biStr(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return StrVal(""), nil
	}
	return StrVal(Str(args[0])), nil
}

func biBool(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return BoolVal(false), nil
	}
	return BoolVal(Truthy(args[0])), nil
}

func biList(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return &ListVal{}, nil
	}
	switch v := args[0].(type) {
	case *ListVal:
		return v.slice(0, v.Len()), nil
	case RangeVal:
		l, err := v.List()
		if err != nil {
			return nil, in.rtErrf(0, "%s", errMsg(err))
		}
		return l, nil
	}
	items, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	return &ListVal{Items: items}, nil
}

func biTuple(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return &TupleVal{}, nil
	}
	items, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	return &TupleVal{Items: items}, nil
}

func biDict(in *Interp, args []Value, kwargs map[string]Value) (Value, error) {
	d := NewDict()
	if len(args) == 1 {
		if src, ok := args[0].(*DictVal); ok {
			for _, kv := range src.Items() {
				if err := d.Set(kv[0], kv[1]); err != nil {
					return nil, err
				}
			}
		} else {
			items, err := toSlice(in, args[0])
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				pair, err := toSlice(in, it)
				if err != nil || len(pair) != 2 {
					return nil, argErr("dict", "update sequence elements must be pairs")
				}
				if err := d.Set(pair[0], pair[1]); err != nil {
					return nil, err
				}
			}
		}
	}
	keys := make([]string, 0, len(kwargs))
	for k := range kwargs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.SetStr(k, kwargs[k])
	}
	return d, nil
}

func biSorted(in *Interp, args []Value, kwargs map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("sorted", "takes exactly one positional argument")
	}
	reverse := false
	if rv, ok := kwargs["reverse"]; ok {
		reverse = Truthy(rv)
	}
	keyFn, hasKey := kwargs["key"]
	if l, ok := args[0].(*ListVal); ok && !hasKey {
		if sorted := l.slice(0, l.Len()); sorted.sortLane() {
			if reverse {
				sorted.reverse()
			}
			return sorted, nil
		}
	}
	out, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	if hasKey {
		type pair struct {
			key  Value
			item Value
		}
		pairs := make([]pair, len(out))
		for i, it := range out {
			k, err := in.Call(keyFn, []Value{it})
			if err != nil {
				return nil, err
			}
			pairs[i] = pair{k, it}
		}
		var sortErr error
		sort.SliceStable(pairs, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			c, err := Compare(pairs[i].key, pairs[j].key)
			if err != nil {
				sortErr = err
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for i, p := range pairs {
			out[i] = p.item
		}
	} else if err := SortValues(out); err != nil {
		return nil, err
	}
	if reverse {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return &ListVal{Items: out}, nil
}

func biReversed(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("reversed", "takes exactly one argument")
	}
	items, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	for i, it := range items {
		out[len(items)-1-i] = it
	}
	return &ListVal{Items: out}, nil
}

func biEnumerate(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, argErr("enumerate", "takes 1 or 2 arguments")
	}
	start := int64(0)
	if len(args) == 2 {
		s, ok := asInt(args[1])
		if !ok {
			return nil, argErr("enumerate", "start must be an integer")
		}
		start = s
	}
	items, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	for i, it := range items {
		out[i] = &TupleVal{Items: []Value{IntVal(start + int64(i)), it}}
	}
	return &ListVal{Items: out}, nil
}

func biZip(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return &ListVal{}, nil
	}
	cols := make([][]Value, len(args))
	minLen := -1
	for i, a := range args {
		items, err := toSlice(in, a)
		if err != nil {
			return nil, err
		}
		cols[i] = items
		if minLen < 0 || len(items) < minLen {
			minLen = len(items)
		}
	}
	out := make([]Value, minLen)
	for r := 0; r < minLen; r++ {
		row := make([]Value, len(cols))
		for c := range cols {
			row[c] = cols[c][r]
		}
		out[r] = &TupleVal{Items: row}
	}
	return &ListVal{Items: out}, nil
}

func biRound(in *Interp, args []val) (val, error) {
	if len(args) < 1 || len(args) > 2 {
		return val{}, argErr("round", "takes 1 or 2 arguments")
	}
	f, ok := args[0].asFloat()
	if !ok {
		return val{}, argErr("round", "argument must be a number")
	}
	if len(args) == 1 {
		return intV(int64(math.RoundToEven(f))), nil
	}
	nd, ok := args[1].asInt()
	if !ok {
		return val{}, argErr("round", "ndigits must be an integer")
	}
	scale := math.Pow(10, float64(nd))
	return floatV(math.RoundToEven(f*scale) / scale), nil
}

func biType(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("type", "takes exactly one argument")
	}
	return StrVal(args[0].TypeName()), nil
}

func biRepr(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("repr", "takes exactly one argument")
	}
	return StrVal(args[0].Repr()), nil
}

func biException(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return StrVal("exception"), nil
	}
	return StrVal(Str(args[0])), nil
}

func biIsinstance(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 2 {
		return nil, argErr("isinstance", "takes exactly two arguments")
	}
	want, ok := args[1].(StrVal)
	if !ok {
		// allow isinstance(x, int) where int is the builtin constructor
		if b, ok := args[1].(*BuiltinVal); ok {
			want = StrVal(b.Name)
		} else {
			return nil, argErr("isinstance", "second argument must be a type")
		}
	}
	return BoolVal(args[0].TypeName() == string(want)), nil
}

// fileHandle backs the object returned by open(); iterating it yields lines
// (Scenario B's `for line in file:`), and pickle.load reads raw bytes.
type fileHandle struct {
	name  string
	data  []byte
	lines []Value
}

// IterValues implements the opaque-iteration protocol used by Interp.items.
func (h *fileHandle) IterValues() ([]Value, error) { return h.lines, nil }

func biOpen(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) < 1 {
		return nil, argErr("open", "missing file name")
	}
	name, ok := args[0].(StrVal)
	if !ok {
		return nil, argErr("open", "file name must be a string")
	}
	mode := "r"
	if len(args) >= 2 {
		if m, ok := args[1].(StrVal); ok {
			mode = string(m)
		}
	}
	if in.FS == nil {
		return nil, core.Errorf(core.KindIO, "file access is not available in this context")
	}
	obj := NewObject("file")
	obj.Attrs.SetStr("name", name)
	switch {
	case strings.HasPrefix(mode, "r"):
		data, err := in.FS.ReadFile(string(name))
		if err != nil {
			return nil, err
		}
		h := &fileHandle{name: string(name), data: data}
		text := strings.TrimSuffix(string(data), "\n")
		if text != "" {
			for _, line := range strings.Split(text, "\n") {
				h.lines = append(h.lines, StrVal(line))
			}
		}
		obj.Opaque = h
		obj.Methods["read"] = func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
			return StrVal(string(data)), nil
		}
		obj.Methods["readlines"] = func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
			return &ListVal{Items: append([]Value(nil), h.lines...)}, nil
		}
		obj.Methods["close"] = func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
			return None, nil
		}
	case strings.HasPrefix(mode, "w"):
		var buf strings.Builder
		obj.Methods["write"] = func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) != 1 {
				return nil, argErr("write", "takes exactly one argument")
			}
			s := Str(args[0])
			buf.WriteString(s)
			return IntVal(int64(len(s))), nil
		}
		obj.Methods["close"] = func(_ *Interp, _ []Value, _ map[string]Value) (Value, error) {
			return None, in.FS.WriteFile(string(name), []byte(buf.String()))
		}
	default:
		return nil, core.Errorf(core.KindIO, "unsupported open mode %q", mode)
	}
	return obj, nil
}
