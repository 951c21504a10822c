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
	for name, fn := range map[string]BuiltinFunc{
		"len": biLen, "range": biRange, "print": biPrint, "sum": biSum, "min": biMin, "max": biMax,
		"abs": biAbs, "int": biInt, "float": biFloat, "str": biStr, "bool": biBool, "list": biList,
		"dict": biDict, "tuple": biTuple, "sorted": biSorted, "reversed": biReversed,
		"enumerate": biEnumerate, "zip": biZip, "round": biRound, "type": biType, "repr": biRepr,
		"open": biOpen, "Exception": biException, "ValueError": biException, "TypeError": biException,
		"isinstance": biIsinstance,
	} {
		builtinIndex[name] = len(builtinTable)
		builtinTable = append(builtinTable, bi(name, fn))
	}
}

func seqLen(v Value) (int64, bool) {
	switch v := v.(type) {
	case *ListVal:
		return int64(len(v.Items)), true
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

func biLen(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("len", "takes exactly one argument")
	}
	if n, ok := seqLen(args[0]); ok {
		return IntVal(n), nil
	}
	return nil, core.Errorf(core.KindType, "object of type '%s' has no len()", args[0].TypeName())
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

// toSlice copies an iterable's elements into a slice the caller owns.
func toSlice(in *Interp, v Value) ([]Value, error) {
	items, err := in.items(v, 0)
	return append([]Value(nil), items...), err
}

func biSum(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, argErr("sum", "takes 1 or 2 arguments")
	}
	items, err := toSlice(in, args[0])
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
	for _, it := range items {
		switch it := it.(type) {
		case IntVal:
			if isFloat {
				facc += float64(it)
			} else {
				iacc += int64(it)
			}
		case BoolVal:
			if it {
				if isFloat {
					facc++
				} else {
					iacc++
				}
			}
		case FloatVal:
			if !isFloat {
				isFloat = true
				facc = float64(iacc)
			}
			facc += float64(it)
		default:
			return nil, core.Errorf(core.KindType,
				"unsupported operand type(s) for +: 'int' and '%s'", it.TypeName())
		}
	}
	if isFloat {
		return FloatVal(facc), nil
	}
	return IntVal(iacc), nil
}

func extreme(in *Interp, name string, args []Value, wantMax bool) (Value, error) {
	var items []Value
	if len(args) == 1 {
		var err error
		items, err = toSlice(in, args[0])
		if err != nil {
			return nil, err
		}
	} else {
		items = args
	}
	if len(items) == 0 {
		return nil, core.Errorf(core.KindConstraint, "%s() arg is an empty sequence", name)
	}
	best := items[0]
	for _, it := range items[1:] {
		c, err := Compare(it, best)
		if err != nil {
			return nil, err
		}
		if (wantMax && c > 0) || (!wantMax && c < 0) {
			best = it
		}
	}
	return best, nil
}

func biMin(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return nil, argErr("min", "expected at least 1 argument")
	}
	return extreme(in, "min", args, false)
}

func biMax(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return nil, argErr("max", "expected at least 1 argument")
	}
	return extreme(in, "max", args, true)
}

func biAbs(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) != 1 {
		return nil, argErr("abs", "takes exactly one argument")
	}
	switch v := args[0].(type) {
	case IntVal:
		if v < 0 {
			return -v, nil
		}
		return v, nil
	case FloatVal:
		return FloatVal(math.Abs(float64(v))), nil
	case BoolVal:
		if v {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	default:
		return nil, core.Errorf(core.KindType, "bad operand type for abs(): '%s'", v.TypeName())
	}
}

func biInt(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return IntVal(0), nil
	}
	switch v := args[0].(type) {
	case IntVal:
		return v, nil
	case BoolVal:
		if v {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	case FloatVal:
		return IntVal(int64(math.Trunc(float64(v)))), nil
	case StrVal:
		s := strings.TrimSpace(string(v))
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, core.Errorf(core.KindType,
				"invalid literal for int() with base 10: %q", string(v))
		}
		return IntVal(n), nil
	default:
		return nil, core.Errorf(core.KindType,
			"int() argument must be a string or a number, not '%s'", v.TypeName())
	}
}

func biFloat(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) == 0 {
		return FloatVal(0), nil
	}
	switch v := args[0].(type) {
	case FloatVal:
		return v, nil
	case IntVal:
		return FloatVal(float64(v)), nil
	case BoolVal:
		if v {
			return FloatVal(1), nil
		}
		return FloatVal(0), nil
	case StrVal:
		f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
		if err != nil {
			return nil, core.Errorf(core.KindType, "could not convert string to float: %q", string(v))
		}
		return FloatVal(f), nil
	default:
		return nil, core.Errorf(core.KindType,
			"float() argument must be a string or a number, not '%s'", v.TypeName())
	}
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
	items, err := toSlice(in, args[0])
	if err != nil {
		return nil, err
	}
	out := append([]Value(nil), items...)
	reverse := false
	if rv, ok := kwargs["reverse"]; ok {
		reverse = Truthy(rv)
	}
	if keyFn, ok := kwargs["key"]; ok {
		type pair struct {
			key  Value
			item Value
		}
		pairs := make([]pair, len(out))
		for i, it := range out {
			k, err := in.call(keyFn, []Value{it}, nil, 0)
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

func biRound(in *Interp, args []Value, _ map[string]Value) (Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, argErr("round", "takes 1 or 2 arguments")
	}
	f, ok := asFloat(args[0])
	if !ok {
		return nil, argErr("round", "argument must be a number")
	}
	if len(args) == 1 {
		return IntVal(int64(math.RoundToEven(f))), nil
	}
	nd, ok := asInt(args[1])
	if !ok {
		return nil, argErr("round", "ndigits must be an integer")
	}
	scale := math.Pow(10, float64(nd))
	return FloatVal(math.RoundToEven(f*scale) / scale), nil
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
