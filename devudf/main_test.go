package devudf

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if a goroutine of this module outlives its
// tests: whatever a test starts, it stops.
func TestMain(m *testing.M) { leakcheck.Main(m) }
