//go:build xstpoison

package algebra

// Built with -tags xstpoison, the package is in poison mode (see
// scratch.go) from the start, in every package's tests.
func init() { poisoned = true }
