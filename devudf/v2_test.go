package devudf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// brokenFS fails every read with a non-not-exist error, standing in for a
// permission-denied project directory.
type brokenFS struct{}

func (brokenFS) ReadFile(string) ([]byte, error) {
	return nil, core.Errorf(core.KindIO, "permission denied")
}
func (brokenFS) ListDir(string) ([]string, error) {
	return nil, core.Errorf(core.KindIO, "permission denied")
}
func (brokenFS) WriteFile(string, []byte) error {
	return core.Errorf(core.KindIO, "permission denied")
}

func TestLoadSettingsOnlyDefaultsWhenMissing(t *testing.T) {
	// missing file → defaults, no error
	s, err := LoadSettings(core.NewMemFS(nil))
	if err != nil || s.Connection.Port != 50000 {
		t.Fatalf("missing settings must yield defaults: %+v %v", s, err)
	}
	// any other read failure must surface, not silently become defaults
	if _, err := LoadSettings(brokenFS{}); err == nil {
		t.Fatal("IO error must not be masked by defaults")
	} else if !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("cause lost: %v", err)
	}
	// corrupt JSON still errors
	fs := core.NewMemFS(map[string]string{"devudf.json": "{nope"})
	if _, err := LoadSettings(fs); err == nil {
		t.Fatal("corrupt settings must error")
	}
}

func TestOpenHonorsCancelledContext(t *testing.T) {
	params, _ := startServer(t)
	settings := DefaultSettings()
	settings.Connection = params
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(cctx, settings, WithFS(core.NewMemFS(nil))); err == nil {
		t.Fatal("Open with cancelled context must fail")
	}
}

func TestOpenVerifiesCredentialsEagerly(t *testing.T) {
	params, _ := startServer(t)
	settings := DefaultSettings()
	settings.Connection = params
	settings.Connection.Password = "wrong"
	if _, err := Open(ctx, settings, WithFS(core.NewMemFS(nil))); err == nil {
		t.Fatal("bad credentials must fail at Open")
	}
}

func TestQueryCancellationThroughClient(t *testing.T) {
	params, _ := startServer(t, `CREATE TABLE t (i INTEGER)`)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(cctx, `SELECT i FROM t`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query must wrap context.Canceled: %v", err)
	}
	// the pool replaces the poisoned connection transparently
	if _, err := c.Query(ctx, `SELECT i FROM t`); err != nil {
		t.Fatalf("pool must recover after a cancelled query: %v", err)
	}
}

func TestPoolStatsThroughClient(t *testing.T) {
	params, _ := startServer(t, `CREATE TABLE t (i INTEGER)`)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)), WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(ctx, `SELECT i FROM t`); err != nil {
		t.Fatal(err)
	}
	st := c.Pool().StatsSnapshot()
	if st.Size != 2 || st.Dials < 1 {
		t.Fatalf("pool stats: %+v", st)
	}
}
