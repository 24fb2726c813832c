package exec

// ForceEncodedGroupKeys turns AggState's atom-key fast path off (on =
// true) for the external tests and returns the func that restores it.
func ForceEncodedGroupKeys(on bool) (restore func()) {
	prev := forceEncodedGroupKeys
	forceEncodedGroupKeys = on
	return func() { forceEncodedGroupKeys = prev }
}
