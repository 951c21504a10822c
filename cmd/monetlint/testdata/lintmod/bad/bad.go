// Package bad holds the module's one seeded violation.
package bad

import (
	"errors"
	"fmt"
)

var errBoom = errors.New("boom")

func Load(name string) error {
	return fmt.Errorf("load %s: %v", name, errBoom)
}
