package devudf

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/script"
	"repro/monetlite"
)

// buggyMeanDeviation is the paper's Listing 4 body (missing abs()).
const buggyMeanDeviation = `CREATE FUNCTION mean_deviation(column INTEGER)
RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation;
};`

const fixedBody = `mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += abs(column[i] - mean)
deviation = distance / len(column)
return deviation`

// startServer boots an in-process server with the demo schema.
// ctx is the background context shared by the v2 API calls in these tests.
var ctx = context.Background()

func startServer(t *testing.T, setup ...string) (monetlite.ConnParams, *monetlite.DB) {
	t.Helper()
	fx, err := bench.StartServer(setup...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fx.Close)
	return fx.Params, fx.DB
}

func newClient(t *testing.T, params monetlite.ConnParams, query string) *Client {
	t.Helper()
	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = query
	c, err := Open(context.Background(), settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSettingsPersistence(t *testing.T) {
	fs := core.NewMemFS(nil)
	s, err := LoadSettings(fs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Connection.Port != 50000 || s.ProjectDir != "udfproject" {
		t.Fatalf("defaults: %+v", s)
	}
	s.Connection.Host = "db.example.com"
	s.DebugQuery = "SELECT mean_deviation(i) FROM numbers"
	s.Transfer.Compress = true
	s.Transfer.SampleSize = 500
	if err := SaveSettings(fs, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSettings(fs)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip: %+v vs %+v", back, s)
	}
}

func TestListAndImport(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		buggyMeanDeviation,
	)
	c := newClient(t, params, `SELECT mean_deviation(i) FROM numbers`)
	infos, err := c.ListServerUDFs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "mean_deviation" {
		t.Fatalf("infos: %+v", infos)
	}
	if len(infos[0].Params) != 1 || infos[0].Params[0].Type != "INTEGER" {
		t.Fatalf("params: %+v", infos[0].Params)
	}
	imported, err := c.ImportUDFs(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != 1 {
		t.Fatalf("imported: %v", imported)
	}
	_, src, err := c.Project.LoadUDF("mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	for _, landmark := range []string{
		"import pickle",
		"def mean_deviation(column):",
		"input_parameters",
	} {
		if !strings.Contains(src, landmark) {
			t.Fatalf("generated script missing %q:\n%s", landmark, src)
		}
	}
	names, _ := c.Project.List()
	if len(names) != 1 {
		t.Fatalf("project list: %v", names)
	}
	if _, err := c.ImportUDFs(ctx, "nope"); err == nil {
		t.Fatal("importing a UDF the server does not have should fail")
	}
}

// TestFullScenarioA is the paper's Scenario A end to end: import the buggy
// mean_deviation, extract its input data, reproduce the wrong answer
// locally, find the bug with the debugger, fix the body, run locally to
// confirm, export, and verify the server now computes the right answer.
func TestFullScenarioA(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		buggyMeanDeviation,
	)
	c := newClient(t, params, `SELECT mean_deviation(i) FROM numbers`)
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}

	// 1. extract the input data (full, uncompressed)
	info, err := c.ExtractInputs(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalRows != 5 || info.SampleRows != 5 {
		t.Fatalf("extract info: %+v", info)
	}

	// 2. reproduce the wrong answer locally
	res, err := c.RunLocal(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Value.Repr(), "0.0") && res.Value.Repr() != "0.0" {
		t.Fatalf("buggy local run should be ~0, got %s", res.Value.Repr())
	}

	// 3. debug: breakpoint in the accumulation loop, watch distance
	sess, err := c.NewDebugSession(ctx, "mean_deviation", false)
	if err != nil {
		t.Fatal(err)
	}
	// the accumulation line inside the generated script
	src, _ := c.Project.LoadUDFSource("mean_deviation")
	line := lineOf(src, "distance += column[i] - mean")
	if line == 0 {
		t.Fatalf("could not find buggy line in:\n%s", src)
	}
	sess.SetBreakpoint(line, "i == 4")
	ev := sess.Start()
	if ev.Reason != ReasonBreakpoint {
		t.Fatalf("stop: %+v", ev)
	}
	v, err := sess.Eval("distance")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.Repr(), "-") {
		t.Fatalf("debugger should expose the negative accumulator, got %s", v.Repr())
	}
	if ev = sess.Continue(); !ev.Terminal {
		t.Fatalf("should run to completion: %+v", ev)
	}

	// 4. fix the body in the project file
	if err := c.EditBody("mean_deviation", fixedBody); err != nil {
		t.Fatal(err)
	}

	// 5. confirm locally on the already-extracted data — no server round trip
	res, err = c.RunLocal(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Repr() != "31.2" {
		t.Fatalf("fixed local run: %s", res.Value.Repr())
	}

	// 6. export back and verify on the server
	if err := c.ExportUDFs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	qres, err := c.Query(ctx, `SELECT mean_deviation(i) AS md FROM numbers`)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Table.Cols[0].Flts[0] != 31.2 {
		t.Fatalf("server after export: %v", qres.Table.Cols[0].Flts)
	}
}

func lineOf(src, needle string) int {
	for i, ln := range strings.Split(src, "\n") {
		if strings.Contains(ln, needle) {
			return i + 1
		}
	}
	return 0
}

func TestExtractWithSamplingCompressionEncryption(t *testing.T) {
	setup := []string{`CREATE TABLE numbers (i INTEGER)`}
	var values []string
	for i := 0; i < 1000; i++ {
		values = append(values, "("+itoa(i)+")")
	}
	setup = append(setup, "INSERT INTO numbers VALUES "+strings.Join(values, ", "))
	setup = append(setup, buggyMeanDeviation)
	params, _ := startServer(t, setup...)

	c := newClient(t, params, `SELECT mean_deviation(i) FROM numbers`)
	c.Settings.Transfer.Compress = true
	c.Settings.Transfer.Encrypt = true
	c.Settings.Transfer.SampleSize = 100
	c.Settings.Transfer.Seed = 7
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	info, err := c.ExtractInputs(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalRows != 1000 || info.SampleRows != 100 {
		t.Fatalf("sampling: %+v", info)
	}
	if !info.Compressed || !info.Encrypted {
		t.Fatalf("flags: %+v", info)
	}
	// the sampled input is runnable
	res, err := c.RunLocal(ctx, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == nil {
		t.Fatal("no result")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestNestedUDFLocalDebug reproduces §2.3 client-side: find_best_classifier
// is imported (train_rnforest follows transitively through its loopback
// query); running it locally executes train_rnforest locally too, on input
// data extracted per call from the server.
func TestNestedUDFLocalDebug(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE trainingset (data DOUBLE, labels INTEGER)`,
		`INSERT INTO trainingset VALUES
			(0.1, 0), (0.2, 0), (0.15, 0), (9.8, 0), (10.1, 0), (10.0, 0),
			(5.0, 1), (5.1, 1), (4.9, 1), (5.05, 1)`,
		`CREATE TABLE testingset (data DOUBLE, labels INTEGER)`,
		`INSERT INTO testingset VALUES
			(0.12, 0), (10.05, 0), (5.02, 1), (4.95, 1), (0.18, 0)`,
		`CREATE FUNCTION train_rnforest(data DOUBLE, labels INTEGER, n_estimators INTEGER)
RETURNS TABLE(clf BLOB, estimators INTEGER) LANGUAGE PYTHON {
    import pickle
    from sklearn.ensemble import RandomForestClassifier
    clf = RandomForestClassifier(n_estimators)
    clf.fit(data, labels)
    return {'clf': pickle.dumps(clf), 'estimators': n_estimators}
};`,
		`CREATE FUNCTION find_best_classifier(esttest INTEGER)
RETURNS TABLE(clf BLOB, n_estimators INTEGER) LANGUAGE PYTHON {
    import pickle
    import numpy
    (tdata, tlabels) = _conn.execute("""SELECT data, labels FROM testingset""")
    best_classifier = None
    best_classifier_answers = -1
    best_estimator = -1
    for estimator in range(1, esttest + 1):
        res = _conn.execute("""
            SELECT * FROM train_rnforest((SELECT data, labels FROM trainingset), %d)
        """ % estimator)
        classifier = pickle.loads(res['clf'])
        predictions = classifier.predict(tdata)
        correct_pred = []
        for i in range(0, len(predictions)):
            correct_pred.append(predictions[i] == tlabels[i])
        correct_ans = numpy.sum(correct_pred)
        if correct_ans > best_classifier_answers:
            best_classifier = classifier
            best_classifier_answers = correct_ans
            best_estimator = estimator
    return {'clf': pickle.dumps(best_classifier), 'n_estimators': best_estimator}
};`,
	)
	c := newClient(t, params, `SELECT * FROM find_best_classifier(3)`)
	imported, err := c.ImportUDFs(ctx, "find_best_classifier")
	if err != nil {
		t.Fatal(err)
	}
	// nested import: train_rnforest must have come along
	if len(imported) != 2 {
		t.Fatalf("imported: %v (nested UDF should be pulled in)", imported)
	}
	if !c.Project.Has("train_rnforest") {
		t.Fatal("train_rnforest missing from project")
	}
	if _, err := c.ExtractInputs(ctx, "find_best_classifier"); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunLocal(ctx, "find_best_classifier")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Value.(*script.DictVal)
	if !ok {
		t.Fatalf("result: %s", res.Value.Repr())
	}
	best, _ := d.GetStr("n_estimators")
	if n, ok := script.AsInt(best); !ok || n < 2 {
		t.Fatalf("best n_estimators: %v", best)
	}
}

func TestExportRequiresImport(t *testing.T) {
	params, _ := startServer(t)
	c := newClient(t, params, "")
	if err := c.ExportUDFs(ctx, "ghost"); err == nil {
		t.Fatal("exporting a non-imported UDF should fail")
	}
	if _, err := c.ExtractInputs(ctx, "ghost"); err == nil {
		t.Fatal("extracting for a non-imported UDF should fail")
	}
	if _, err := c.RunLocal(ctx, "ghost"); err == nil {
		t.Fatal("running a non-imported UDF should fail")
	}
}

func TestExtractRequiresDebugQuery(t *testing.T) {
	params, _ := startServer(t, buggyMeanDeviation)
	c := newClient(t, params, "")
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExtractInputs(ctx, "mean_deviation"); err == nil {
		t.Fatal("missing debug query should fail with a helpful error")
	}
}

func TestImportAllAndVCS(t *testing.T) {
	params, _ := startServer(t,
		`CREATE FUNCTION a(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`,
		`CREATE FUNCTION b(y DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON { return y }`,
	)
	c := newClient(t, params, "")
	// what `devudf import -all` does: one catalog listing, then ImportUDFs
	infos, err := c.ListServerUDFs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
	}
	imported, err := c.ImportUDFs(ctx, names...)
	if err != nil || len(imported) != 2 {
		t.Fatalf("import all: %v %v", imported, err)
	}
	if _, err := c.Project.InitVCS(); err != nil {
		t.Fatal(err)
	}
	h1, err := c.Project.Commit("dev", "import from server")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EditBody("a", "return x * 2"); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Project.Commit("dev", "double it")
	if err != nil {
		t.Fatal(err)
	}
	repo, _ := c.Project.OpenVCS()
	diff, err := repo.Diff(h1, h2)
	if err != nil || len(diff) != 1 || diff[0].Path != "a.py" {
		t.Fatalf("diff: %+v %v", diff, err)
	}
	log, _ := repo.Log()
	if len(log) != 2 || log[0].Message != "double it" {
		t.Fatalf("log: %+v", log)
	}
}
