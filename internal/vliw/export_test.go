package vliw

// SetRegionEnterHook installs fn as the observer of loop-region fast
// path entries (see testRegionEnter) for the external tests, and
// returns the function that removes it. Callers must not run in
// parallel with other simulations.
func SetRegionEnterHook(fn func(*PlannedLoop)) (remove func()) {
	testRegionEnter = fn
	return func() { testRegionEnter = nil }
}
