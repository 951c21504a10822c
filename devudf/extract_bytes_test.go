package devudf

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// inputBinDigest is the SHA-256 of the input.bin ExtractInputs wrote at the
// commit before the pickle decoder learned the typed lanes (every cell was
// unpickled into a box and pickled again), for the inputs below and whatever
// the transfer options. Decoding a column into a lane and pickling it from
// the lane must not move a byte.
const inputBinDigest = "17413b834ca4d041f9ec23805e5c84b1d010a6afaca69e252213f96a9f44dba2"

func TestExtractInputFileIsTheParents(t *testing.T) {
	var rows []string
	for i := 0; i < 600; i++ {
		n, x := itoa(i*37%1000), itoa(i%90)+"."+itoa(i%4*25)
		if i%7 == 3 {
			n = "NULL"
		}
		if i%11 == 5 {
			x = "NULL"
		}
		rows = append(rows, "("+n+", "+x+", 'ward "+itoa(i%6)+"')")
	}
	params, _ := startServer(t,
		`CREATE TABLE visits (n INTEGER, x DOUBLE, w STRING)`,
		"INSERT INTO visits VALUES "+strings.Join(rows, ", "),
		`CREATE FUNCTION score(n INTEGER, x DOUBLE, w STRING, k INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {
    return 0.0
};`)
	for _, packed := range []bool{false, true} {
		c := newClient(t, params, `SELECT score(n, x, w, 3) FROM visits`)
		c.Settings.Transfer.Compress, c.Settings.Transfer.Encrypt, c.Settings.Transfer.Seed = packed, packed, 7
		if _, err := c.ImportUDFs(ctx, "score"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExtractInputs(ctx, "score"); err != nil {
			t.Fatal(err)
		}
		data, err := c.Project.FS().ReadFile(c.Project.InputPath("score"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != inputBinDigest {
			t.Errorf("compress+encrypt %v: input.bin (%d bytes) hashes to %s, the parent's to %s", packed, len(data), got, inputBinDigest)
		}
	}
}
