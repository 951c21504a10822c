// Package clean has nothing to report.
package clean

import (
	"errors"
	"fmt"
)

var errBoom = errors.New("boom")

func Load(name string) error {
	return fmt.Errorf("load %s: %w", name, errBoom)
}
