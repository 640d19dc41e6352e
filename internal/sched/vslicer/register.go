package vslicer

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "VS",
		Order:       5,
		Description: "vSlicer microslicing: latency-sensitive VMs run at a much finer slice than the default",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			if o.MicroSlice <= 0 {
				return nil, fmt.Errorf("vslicer: micro slice must be positive, got %v", o.MicroSlice)
			}
			// A base slice at or below the microslice would violate
			// vSlicer's micro < base invariant; keep the 30:1
			// differentiated-frequency ratio relative to the base instead.
			if o.MicroSlice >= o.Credit.TimeSlice {
				o.MicroSlice = o.Credit.TimeSlice / 30
				if o.MicroSlice <= 0 {
					return nil, fmt.Errorf("vslicer: base slice %v too small to microslice", o.Credit.TimeSlice)
				}
			}
			return Factory(o), nil
		},
	})
}
