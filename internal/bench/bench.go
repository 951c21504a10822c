// Package bench holds the shared fixtures of the evaluation harness: the
// demo schema and UDFs from the paper, data generators, and in-process
// server bootstrapping used by both bench_test.go (testing.B timings) and
// cmd/experiments (the table/figure report).
package bench

import (
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/monetlite"
)

// MeanDeviationBuggy is the paper's Listing 4 (semantic bug: no abs()).
const MeanDeviationBuggy = `CREATE FUNCTION mean_deviation(column INTEGER)
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

// MeanDeviationFixedBody is the corrected body (for exports and E4).
const MeanDeviationFixedBody = `mean = 0
for i in range(0, len(column)):
    mean += column[i]
mean = mean / len(column)
distance = 0
for i in range(0, len(column)):
    distance += abs(column[i] - mean)
deviation = distance / len(column)
return deviation`

// LoadNumbersBuggy is the paper's Listing 5 (range off-by-one drops the
// last CSV file).
const LoadNumbersBuggy = `CREATE FUNCTION loadNumbers(path STRING)
RETURNS TABLE(i INTEGER)
LANGUAGE PYTHON {
    import os
    files = os.listdir(path)
    result = []
    for i in range(0, len(files) - 1):
        file = open(path + "/" + files[i], "r")
        for line in file:
            result.append(int(line))
    return result
};`

// TrainRnforest is the paper's Listing 1 UDF against the sklearn shim.
const TrainRnforest = `CREATE FUNCTION train_rnforest(data DOUBLE, labels INTEGER, n_estimators INTEGER)
RETURNS TABLE(clf BLOB, estimators INTEGER) LANGUAGE PYTHON {
    import pickle
    from sklearn.ensemble import RandomForestClassifier
    clf = RandomForestClassifier(n_estimators)
    clf.fit(data, labels)
    return {'clf': pickle.dumps(clf), 'estimators': n_estimators}
};`

// FindBestClassifier is the paper's Listing 3 nested UDF.
const FindBestClassifier = `CREATE FUNCTION find_best_classifier(esttest INTEGER)
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
};`

// SquareUDF is a tiny scalar UDF written to run under both processing
// models when called per row, used by the E5 model comparison.
const SquareUDF = `CREATE FUNCTION square(x INTEGER)
RETURNS INTEGER LANGUAGE PYTHON {
    return x * x
};`

// SquareVectorUDF is the operator-at-a-time formulation of the same
// computation (whole column in, whole column out).
const SquareVectorUDF = `CREATE FUNCTION square_vec(x INTEGER)
RETURNS INTEGER LANGUAGE PYTHON {
    out = []
    for v in x:
        out.append(v * v)
    return out
};`

// SquareGo is the native GO runtime's formulation: the engine hands the
// column vector to typed Go code directly (register with
// DB.RegisterGoUDF("square_go", bench.SquareGo)).
func SquareGo(x []int64) []int64 {
	out := make([]int64, len(x))
	for i, v := range x {
		out[i] = v * v
	}
	return out
}

// NumbersInsert builds an INSERT statement with n pseudo-random rows drawn
// from a small linear congruential sequence (deterministic, compressible
// the way real measurement columns are).
func NumbersInsert(table string, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	seed := uint32(12345)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		seed = seed*1664525 + 1013904223
		fmt.Fprintf(&sb, "(%d)", seed%10000)
	}
	return sb.String()
}

// MLInserts returns INSERT statements for the training/testing sets used
// by the nested-UDF experiment: class 0 is bimodal so more estimators help.
func MLInserts(trainPerCluster, testRows int) []string {
	var train strings.Builder
	train.WriteString("INSERT INTO trainingset VALUES ")
	first := true
	emit := func(v float64, label int) {
		if !first {
			train.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&train, "(%g, %d)", v, label)
	}
	for i := 0; i < trainPerCluster; i++ {
		jitter := float64(i%7) * 0.03
		emit(0.1+jitter, 0)
		emit(10.0+jitter, 0)
		emit(5.0+jitter, 1)
	}
	var test strings.Builder
	test.WriteString("INSERT INTO testingset VALUES ")
	for i := 0; i < testRows; i++ {
		if i > 0 {
			test.WriteByte(',')
		}
		jitter := float64(i%5) * 0.02
		switch i % 3 {
		case 0:
			fmt.Fprintf(&test, "(%g, 0)", 0.12+jitter)
		case 1:
			fmt.Fprintf(&test, "(%g, 0)", 10.05+jitter)
		default:
			fmt.Fprintf(&test, "(%g, 1)", 5.02+jitter)
		}
	}
	return []string{train.String(), test.String()}
}

// Fixture is an in-process server with its database.
type Fixture struct {
	DB     *monetlite.DB
	Server *monetlite.Server
	Params monetlite.ConnParams
}

// StartServer boots a server on a random local port and applies setup SQL.
func StartServer(setup ...string) (*Fixture, error) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn := monetlite.Connect(db, "monetdb", "monetdb")
	for _, sql := range setup {
		if _, err := conn.Exec(sql); err != nil {
			srv.Close()
			return nil, err
		}
	}
	host, portStr, err := net.SplitHostPort(addr)
	var port int
	if err == nil {
		port, err = strconv.Atoi(portStr)
	}
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Fixture{
		DB:     db,
		Server: srv,
		Params: monetlite.ConnParams{
			Host: host, Port: port, Database: "demo",
			User: "monetdb", Password: "monetdb",
		},
	}, nil
}

// Close shuts the server down.
func (f *Fixture) Close() { f.Server.Close() }

// Table1Row is one row of the paper's Table 1 (development-environment
// market share, from the PYPL Top IDE index the paper cites).
type Table1Row struct {
	Name  string
	Share float64
	Kind  string
}

// Table1 is the paper's Table 1, verbatim.
var Table1 = []Table1Row{
	{"Eclipse", 25.2, "IDE"},
	{"Visual Studio", 19.5, "IDE"},
	{"Android Studio", 9.5, "IDE"},
	{"Vim", 7.9, "Text Editor"},
	{"XCode", 5.2, "IDE"},
	{"IntelliJ", 4.8, "IDE"},
	{"NetBeans", 4.0, "IDE"},
	{"Xamarin", 3.8, "IDE"},
	{"Komodo", 3.4, "IDE"},
	{"Sublime Text", 3.3, "Text Editor"},
	{"Visual Studio Code", 3.3, "Text Editor"},
	{"PyCharm", 2.3, "IDE"},
}

// IDEShare sums Table 1 market share by kind — the paper's argument that
// IDEs are "heavily preferred" over plain text editors.
func IDEShare() (ide, editor float64) {
	for _, r := range Table1 {
		if r.Kind == "IDE" {
			ide += r.Share
		} else {
			editor += r.Share
		}
	}
	return ide, editor
}
