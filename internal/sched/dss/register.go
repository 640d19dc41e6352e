package dss

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "DSS",
		Order:       4,
		Description: "dynamic switching-frequency scaling: per-VM slices tiered by smoothed I/O event rate",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			if o.Smoothing <= 0 || o.Smoothing > 1 {
				return nil, fmt.Errorf("dss: smoothing %v out of (0,1]", o.Smoothing)
			}
			for i, tier := range o.Tiers {
				if tier.Slice <= 0 {
					return nil, fmt.Errorf("dss: tier %d slice must be positive, got %v", i, tier.Slice)
				}
				if i > 0 && tier.MinRate >= o.Tiers[i-1].MinRate {
					return nil, fmt.Errorf("dss: tiers must be sorted by descending MinRate")
				}
			}
			return Factory(o), nil
		},
	})
}
