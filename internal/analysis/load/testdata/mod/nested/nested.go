// Package nested is the root of a separate module inside the mod tree:
// ModulePackages must not walk into it, as `go vet ./...` does not.
package nested
