package vliw

// SetRegionEnterHook installs fn as the observer of planned loop-region
// entries and past-the-head straight-region entries of the region fast
// path (see testRegionEnter) for the external tests, and returns the
// function that removes it. Callers must not run in parallel with other
// simulations.
func SetRegionEnterHook(fn func(pl *PlannedLoop, pastHead bool)) (remove func()) {
	testRegionEnter = fn
	return func() { testRegionEnter = nil }
}
