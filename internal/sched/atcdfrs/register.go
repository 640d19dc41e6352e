package atcdfrs

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:      "ATCDFRS",
		Extension: true,
		Description: "ATC×DFRS hybrid: parallel VMs get adaptive time slices, " +
			"non-parallel VMs get demand-driven CPU fractions",
		Defaults: func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			if o.DFRS.MinQuantum > o.DFRS.Credit.TimeSlice {
				o.DFRS.MinQuantum = o.DFRS.Credit.TimeSlice
			}
			if err := o.DFRS.Validate(); err != nil {
				return nil, err
			}
			if err := o.controlConfig().Validate(); err != nil {
				return nil, fmt.Errorf("atcdfrs: %w", err)
			}
			return Factory(o), nil
		},
	})
}
