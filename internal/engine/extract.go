package engine

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/udfrt"
	"repro/internal/udfrt/pyrt"
)

// extractArgs is the type of each of sys_extract's leading arguments: the
// UDF's name and the transfer options compress, encrypt, sample_size and
// seed.
var extractArgs = [...]storage.Type{storage.TStr, storage.TBool, storage.TBool, storage.TInt, storage.TInt}

// evalExtract executes SELECT * FROM sys_extract('<udf>', compress, encrypt,
// sample_size, seed, args...). Its arguments are evaluated as a UDF's are,
// and each leading one must be one non-NULL value of its type.
func (f *frame) evalExtract(call *sqlparse.FuncCall) (*storage.Table, error) {
	cols, isColumn, err := f.udfArgColumns(newCtx(nil, nil), call.Args)
	if err != nil {
		return nil, err
	}
	for i, typ := range extractArgs {
		if i >= len(cols) || cols[i].Typ != typ || cols[i].Len() != 1 || cols[i].IsNull(0) {
			return nil, core.Errorf(core.KindType, "%s: argument %d must be one %s value",
				transform.ExtractFuncName, i+1, typ)
		}
	}
	if cols[3].Ints[0] < 0 {
		return nil, core.Errorf(core.KindType, "%s: argument 4 must not be negative", transform.ExtractFuncName)
	}
	opts := transfer.Options{
		Compress:   cols[1].Bools[0],
		Encrypt:    cols[2].Bools[0],
		SampleSize: int(cols[3].Ints[0]),
		Seed:       cols[4].Ints[0],
	}
	def, err := f.DB.cat.Function(cols[0].Strs[0])
	if err != nil {
		return nil, err
	}
	argCols, isColumn := cols[len(extractArgs):], isColumn[len(extractArgs):]
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

	t := storage.NewTable("extract", transform.ExtractAnswer)
	if err := t.AppendRow([]any{packed, int64(totalRows), int64(in.Rows)}); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeExtractPayload is the client-side inverse: it unpacks a sys_extract
// payload (decrypt, decompress, unpickle) into the parameter dict and
// metadata, the whole envelope decoded and checked. devUDF does not call it:
// it writes input.bin from the params entry's own bytes (script.PickledEntry)
// and decodes nothing it does not run. A parameter that was a numeric column
// is a column-backed list (script.UnmarshalColumns): read it with Len, Repr,
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
