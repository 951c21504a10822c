package devudf

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/transform"
)

// BenchmarkExtractInputs is the full extract of the benchmark's dev_cycle:
// 50 000 ints in [0, 10 000) extracted compressed and encrypted over the
// loopback server, in its two halves. server is the rewritten query sent,
// answered by sys_extract and its payload read off the wire; client is the
// payload made into input.bin, as ExtractInputs does after the query.
func BenchmarkExtractInputs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]string, 50_000)
	for i := range rows {
		rows[i] = "(" + strconv.Itoa(rng.Intn(10_000)) + ")"
	}
	fx, err := bench.StartServer(`CREATE TABLE numbers (i INTEGER)`,
		"INSERT INTO numbers VALUES "+strings.Join(rows, ", "), buggyMeanDeviation)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	settings := DefaultSettings()
	settings.Connection = fx.Params
	settings.DebugQuery = "SELECT mean_deviation(i) FROM numbers"
	settings.Transfer = TransferOptions{Compress: true, Encrypt: true, Seed: 1}
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		b.Fatal(err)
	}
	sql, err := transform.RewriteToExtract(settings.DebugQuery, "mean_deviation", settings.Transfer)
	if err != nil {
		b.Fatal(err)
	}
	query := func() []byte {
		_, t, err := c.pool.Query(ctx, sql)
		if err != nil {
			b.Fatal(err)
		}
		return t.Cols[0].Blobs[0]
	}
	payload := query()
	b.Run("server", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query()
		}
	})
	b.Run("client", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			params, err := c.paramsOf(payload)
			if err == nil {
				err = c.Project.FS().WriteFile(c.Project.InputPath("mean_deviation"), params)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
