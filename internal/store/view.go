package store

import "context"

// The adapters below keep the shape of the snapshot-view API that the
// repository's benchmark compiles against (benchsurface_test.go pins
// each symbol). A snapshot is a catalog version, and a heap version
// bounds its own reads (HeapFile), so there is nothing left to pin, to
// carry through a context or to retain: each adapter does nothing.

// View is kept for benchsurface_test.go: an empty read view.
type View struct{}

// Release is kept for benchsurface_test.go: there is nothing to
// release. It accepts a nil view.
func (*View) Release() {}

// WithView is kept for benchsurface_test.go: it returns ctx.
func WithView(ctx context.Context, _ *View) context.Context { return ctx }

// SupersededImages is kept for benchsurface_test.go: the pool retains
// no superseded image, so it reports 0.
func (*BufferPool) SupersededImages() int { return 0 }

// ReclaimedImages is kept for benchsurface_test.go: the pool reclaims
// no superseded image, so it reports 0.
func (*BufferPool) ReclaimedImages() uint64 { return 0 }
