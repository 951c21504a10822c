// go_udf: one UDF, two runtimes.
//
// The CREATE FUNCTION LANGUAGE clause picks the runtime a UDF runs on:
// PYTHON or GO. This example registers a native Go implementation of the
// haversine distance next to the equivalent stored PYTHON UDF, runs the
// same query through both runtimes, checks they agree, and times them —
// the zero-boxing fast path the GO runtime buys.
//
//	go run ./examples/go_udf
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/storage"
	"repro/monetlite"
)

const rows = 50_000

// haversine is a plain typed Go function: the GO runtime hands it the
// argument columns' backing vectors directly.
func haversine(lat1, lon1, lat2, lon2 []float64) []float64 {
	const earthRadiusKm = 6371.0
	out := make([]float64, len(lat1))
	rad := math.Pi / 180
	for i := range lat1 {
		dLat := (lat2[i] - lat1[i]) * rad
		dLon := (lon2[i] - lon1[i]) * rad
		a := math.Sin(dLat/2)*math.Sin(dLat/2) +
			math.Cos(lat1[i]*rad)*math.Cos(lat2[i]*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
		out[i] = 2 * earthRadiusKm * math.Asin(math.Sqrt(a))
	}
	return out
}

// haversinePy is the same computation as a stored PYTHON UDF (simplified
// with the small-angle-free formula the PyLite math module supports).
const haversinePy = `CREATE FUNCTION haversine_py(lat1 DOUBLE, lon1 DOUBLE, lat2 DOUBLE, lon2 DOUBLE)
RETURNS DOUBLE LANGUAGE PYTHON {
    import math
    out = []
    rad = math.pi / 180
    for i in range(0, len(lat1)):
        dlat = (lat2[i] - lat1[i]) * rad
        dlon = (lon2[i] - lon1[i]) * rad
        a = math.sin(dlat / 2) * math.sin(dlat / 2) + math.cos(lat1[i] * rad) * math.cos(lat2[i] * rad) * math.sin(dlon / 2) * math.sin(dlon / 2)
        out.append(2 * 6371.0 * math.asin(math.sqrt(a)))
    return out
};`

func main() {
	db := monetlite.NewDB()
	conn := monetlite.Connect(db, "monetdb", "monetdb")

	// 1. Register the native runtime's implementation: one call creates the
	// catalog entry (types inferred by reflection) and binds the function.
	if err := db.RegisterGoUDF("haversine", haversine); err != nil {
		log.Fatal(err)
	}
	// 2. The PYTHON twin arrives the classic way.
	if _, err := conn.Exec(haversinePy); err != nil {
		log.Fatal(err)
	}

	// 3. A table of city-pair coordinates (synthetic grid), bulk-loaded.
	t := storage.NewTable("trips", storage.Schema{
		{Name: "lat1", Type: storage.TFloat},
		{Name: "lon1", Type: storage.TFloat},
		{Name: "lat2", Type: storage.TFloat},
		{Name: "lon2", Type: storage.TFloat},
	})
	for i := 0; i < rows; i++ {
		if err := t.AppendRow([]any{
			float64(i%90) + 0.5,
			float64(i%180) + 0.25,
			float64((i+37)%90) + 0.75,
			float64((i+91)%180) + 0.5,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.RegisterTable(t); err != nil {
		log.Fatal(err)
	}

	// 4. Same query, both runtimes.
	run := func(udf string) (*monetlite.Table, time.Duration) {
		start := time.Now()
		res, err := conn.Exec(fmt.Sprintf(`SELECT %s(lat1, lon1, lat2, lon2) AS km FROM trips`, udf))
		if err != nil {
			log.Fatal(err)
		}
		return res.Table, time.Since(start)
	}
	goTbl, goDur := run("haversine")
	pyTbl, pyDur := run("haversine_py")

	// 5. They must agree.
	g, _ := goTbl.Column("km")
	p, _ := pyTbl.Column("km")
	for i := 0; i < rows; i++ {
		if math.Abs(g.Flts[i]-p.Flts[i]) > 1e-9 {
			log.Fatalf("row %d: GO %.9f != PYTHON %.9f", i, g.Flts[i], p.Flts[i])
		}
	}

	fmt.Printf("haversine over %d row pairs, identical results from both runtimes\n", rows)
	fmt.Printf("  LANGUAGE GO      (native):      %v\n", goDur)
	fmt.Printf("  LANGUAGE PYTHON  (interpreter): %v\n", pyDur)
	fmt.Printf("  speedup: %.1fx\n", float64(pyDur)/float64(goDur))
	fmt.Printf("sample: first trip = %.2f km\n", g.Flts[0])
}
