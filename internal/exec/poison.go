//go:build xstpoison

package exec

// Built with -tags xstpoison, the package is in poison mode (see
// recycle.go) from the start, in every package's tests.
func init() { poisoned = true }
