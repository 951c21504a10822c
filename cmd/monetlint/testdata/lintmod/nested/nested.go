// Package nested is its own module: "./..." from the parent must not walk
// into it, so this violation is never reported.
package nested

import (
	"errors"
	"fmt"
)

func Load() error {
	return fmt.Errorf("nested: %v", errors.New("boom"))
}
