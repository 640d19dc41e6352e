package dfrs

import (
	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:      "DFRS",
		Extension: true,
		Description: "dynamic fractional resource scheduling: per-VM CPU fractions redistributed " +
			"toward yield-maximizing shares every few periods, work-conserving",
		Defaults: func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			// A short fixed slice caps the fractional quantum too; pull
			// the floor under it rather than rejecting the override.
			if o.MinQuantum > o.Credit.TimeSlice {
				o.MinQuantum = o.Credit.TimeSlice
			}
			if err := o.Validate(); err != nil {
				return nil, err
			}
			return Factory(o), nil
		},
	})
}
