package hybrid

import (
	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "HY",
		Extension:   true,
		Description: "hybrid scheduling framework (extension baseline): parallel VMs' VCPUs promoted to BOOST",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			return Factory(*opts.(*Options)), nil
		},
	})
}
