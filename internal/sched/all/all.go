// Package all links every in-tree scheduling policy into the binary by
// importing each policy package for its registry side effect. Anything
// that resolves policies by name (internal/cluster, internal/daemon, the
// commands) imports this package blank; a new policy only needs to be
// added to the list below — nothing else in the tree names it.
package all

import (
	_ "atcsched/internal/sched/atc"
	_ "atcsched/internal/sched/atcdfrs"
	_ "atcsched/internal/sched/balance"
	_ "atcsched/internal/sched/cosched"
	_ "atcsched/internal/sched/credit"
	_ "atcsched/internal/sched/dfrs"
	_ "atcsched/internal/sched/dss"
	_ "atcsched/internal/sched/hybrid"
	_ "atcsched/internal/sched/vslicer"
)
