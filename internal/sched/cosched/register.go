package cosched

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "CS",
		Order:       3,
		Description: "dynamic co-scheduling: gang-dispatches the VCPUs of spin-heavy VMs at every tick",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			if o.SpinWaitThreshold <= 0 {
				return nil, fmt.Errorf("cosched: spin-wait threshold must be positive, got %v", o.SpinWaitThreshold)
			}
			if o.CalmPeriods <= 0 {
				return nil, fmt.Errorf("cosched: calm periods must be positive, got %d", o.CalmPeriods)
			}
			return Factory(o), nil
		},
	})
}
