package index

// NewMaskedHashIndex returns an empty hash index that files and probes
// keys under only the digest bits in mask, forcing collisions, for the
// external tests of the index's callers.
func NewMaskedHashIndex(n int, mask uint64) *HashIndex { return newHashIndex(n, mask) }
