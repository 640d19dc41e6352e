package balance

import (
	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "BS",
		Order:       2,
		Description: "balance scheduling: never queues two sibling VCPUs of one VM on the same PCPU runqueue",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			return Factory(*opts.(*Options)), nil
		},
	})
}
