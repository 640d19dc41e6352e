package atc

import (
	"fmt"

	"atcsched/internal/sched/registry"
	"atcsched/internal/vmm"
)

func init() {
	registry.Register(registry.Descriptor{
		Kind:        "ATC",
		Order:       6,
		Description: "adaptive time-slice control (the paper's contribution): per-period spin-latency feedback drives node-wide slices",
		Defaults:    func() any { o := DefaultOptions(); return &o },
		Build: func(opts any) (vmm.SchedulerFactory, error) {
			o := *opts.(*Options)
			if err := o.controlConfig().Validate(); err != nil {
				return nil, fmt.Errorf("atc: %w", err)
			}
			return Factory(o), nil
		},
	})
}
