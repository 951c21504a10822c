// Package app spawns a goroutine whose only bound is in another package.
package app

import "lintmod/workers"

func Start(done <-chan struct{}) {
	go workers.Pump(done, func() {})
}
