// Package workers sorts after its importer app, so a driver that analyzed
// packages in listing order would check app before this package's facts
// exist.
package workers

// Pump runs until done is closed; the receive is what makes a goroutine
// running it bounded.
func Pump(done <-chan struct{}, tick func()) {
	tick()
	<-done
}
