package transfer

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if a goroutine of this module outlives its
// tests: Compress's workers have all returned before it does.
func TestMain(m *testing.M) { leakcheck.Main(m) }
