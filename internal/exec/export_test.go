package exec

// SetDigestMask narrows the digest every keyed table files its keys
// under to mask, forcing collisions, for the external tests, and
// returns the func that restores it.
func SetDigestMask(mask uint64) (restore func()) {
	prev := digestMask
	digestMask = mask
	return func() { digestMask = prev }
}
