package credit

import (
	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "CR",
		Order:       1,
		Description: "Xen Credit scheduler (baseline): proportional-share credits, BOOST/UNDER/OVER priorities, 30ms slices",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build:       build(Factory),
	})
	// EXT is registered with neither a comparison position nor the
	// extension flag: it is resolvable by name (the control daemon's sim
	// backend swaps nodes onto it) but excluded from the evaluation
	// sweeps, which compare scheduling policies rather than actuation
	// paths.
	registry.Register(registry.Descriptor{
		Kind:        "EXT",
		Description: "externally-controlled credit scheduler: per-VM slices set by a userspace daemon (cmd/atcd)",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build:       build(ExternalFactory),
	})
}

// build adapts a credit-options factory to a registry Build.
func build(factory func(Options) vmm.SchedulerFactory) func(any) (vmm.SchedulerFactory, error) {
	return func(opts any) (vmm.SchedulerFactory, error) { return factory(*opts.(*Options)), nil }
}
