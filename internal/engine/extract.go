package engine

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/udfrt"
	"repro/internal/udfrt/pyrt"
)

// extractFuncName is the reserved table function devUDF's query rewriting
// substitutes for a UDF call (paper §2.2): instead of executing the UDF,
// the server packages the UDF's would-be input data — optionally sampled,
// compressed and encrypted — and returns it to the client.
const extractFuncName = "sys_extract"

// extract result schema.
var extractSchema = storage.Schema{
	{Name: "udf", Type: storage.TStr},
	{Name: "payload", Type: storage.TBlob},
	{Name: "compressed", Type: storage.TBool},
	{Name: "encrypted", Type: storage.TBool},
	{Name: "total_rows", Type: storage.TInt},
	{Name: "sample_rows", Type: storage.TInt},
}

// evalExtract executes SELECT * FROM sys_extract('<udf>', '<opts>', args...).
func (f *frame) evalExtract(call *sqlparse.FuncCall) (*storage.Table, error) {
	if len(call.Args) < 2 {
		return nil, core.Errorf(core.KindConstraint,
			"%s requires (udf_name, options, args...)", extractFuncName)
	}
	nameLit, ok := call.Args[0].(*sqlparse.StrLit)
	if !ok {
		return nil, core.Errorf(core.KindType, "%s: first argument must be a string literal", extractFuncName)
	}
	optLit, ok := call.Args[1].(*sqlparse.StrLit)
	if !ok {
		return nil, core.Errorf(core.KindType, "%s: second argument must be a string literal", extractFuncName)
	}
	opts, err := transfer.DecodeOptions(optLit.Value)
	if err != nil {
		return nil, err
	}
	def, err := f.DB.cat.Function(nameLit.Value)
	if err != nil {
		return nil, err
	}
	argCols, isColumn, err := f.udfArgColumns(newCtx(nil, nil), call.Args[2:])
	if err != nil {
		return nil, err
	}
	if err := udfrt.CheckCall(def, len(argCols), true); err != nil {
		return nil, err
	}
	in := udfrt.NewBatch(argCols, isColumn)
	totalRows := in.Rows
	if opts.SampleSize > 0 && opts.SampleSize < totalRows {
		idx := transfer.SampleIndexes(totalRows, opts.SampleSize, opts.Seed)
		for i, col := range in.Cols {
			if col.Len() == totalRows {
				g := col.Gather(idx)
				g.Name = col.Name
				in.Cols[i] = g
			}
		}
		in.Rows = len(idx)
	}

	// Package the inputs as the pickled dict the generated local script
	// loads: {param_name: column values} plus self-describing metadata.
	envelope := script.NewDict()
	envelope.SetStr("udf", script.StrVal(def.Name))
	envelope.SetStr("params", pyrt.Params(def.Params, in))
	envelope.SetStr("total_rows", script.IntVal(int64(totalRows)))
	envelope.SetStr("sample_rows", script.IntVal(int64(in.Rows)))
	payload, err := script.Marshal(envelope)
	if err != nil {
		return nil, err
	}
	packed, err := transfer.Pack(payload, f.Password, opts)
	if err != nil {
		return nil, err
	}

	t := storage.NewTable("extract", extractSchema)
	err = t.AppendRow([]any{
		def.Name, packed, opts.Compress, opts.Encrypt,
		int64(totalRows), int64(in.Rows),
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeExtractPayload is the client-side inverse: it unpacks a sys_extract
// payload (decrypt, decompress, unpickle) into the parameter dict and
// metadata. The devudf package calls this after fetching the rewritten
// query's result over the wire. A parameter that was a numeric column is a
// column-backed list (script.UnmarshalColumns): read it with Len, Repr,
// Boxed or Numbers, not through Items.
func DecodeExtractPayload(packed []byte, password string) (udf string, params *script.DictVal, totalRows, sampleRows int64, err error) {
	raw, err := transfer.Unpack(packed, password)
	if err != nil {
		return "", nil, 0, 0, err
	}
	v, err := script.UnmarshalColumns(raw)
	if err != nil {
		return "", nil, 0, 0, err
	}
	env, ok := v.(*script.DictVal)
	if !ok {
		return "", nil, 0, 0, core.Errorf(core.KindProtocol, "extract payload is not a dict")
	}
	nameV, _ := env.GetStr("udf")
	paramsV, _ := env.GetStr("params")
	totalV, _ := env.GetStr("total_rows")
	sampleV, _ := env.GetStr("sample_rows")
	name, ok1 := nameV.(script.StrVal)
	pd, ok2 := paramsV.(*script.DictVal)
	tr, ok3 := totalV.(script.IntVal)
	sr, ok4 := sampleV.(script.IntVal)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return "", nil, 0, 0, core.Errorf(core.KindProtocol, "extract payload envelope is malformed")
	}
	return string(name), pd, int64(tr), int64(sr), nil
}
