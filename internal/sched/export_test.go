package sched

// TryII and ResMII expose the heuristic's single-II attempt and the
// resource bound, and LoopCounterInit and WithoutLast the pipelining
// candidate check and the body DAG restriction, to the external tests,
// which collect benchmark loops through core (core imports this
// package, so those tests cannot live in it).
var (
	TryII           = tryII
	ResMII          = resMII
	LoopCounterInit = loopCounterInit
	WithoutLast     = (*DAG).withoutLast
)
