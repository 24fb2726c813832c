// Package xsp is what is left of the second, table-level engine after
// its batch kernels moved into internal/exec: aliases for the two
// aggregate kinds benchmarks/xstperf names. That frozen benchmark module
// is its only user; nothing in the main module imports it.
package xsp

import "xst/internal/exec"

// AggKind selects an aggregate function (exec.AggKind).
type AggKind = exec.AggKind

// Aggregate kinds benchmarks/xstperf names.
const (
	Count = exec.AggCount
	Sum   = exec.AggSum
)
