// Package registry is the single authority on scheduling policies: each
// scheduler package self-registers a Descriptor (kind, description,
// defaults, options type, factory builder) from an init function, and
// everything that selects a policy by name — cluster configs, scenario
// JSON, command-line flags, the control daemon — resolves it here. Adding
// a policy is therefore implementing vmm.Scheduler plus one Register
// call; no switch statements elsewhere need editing.
//
// Options have one meaning. A Go caller passes the registered options
// struct, by value or pointer, and it is used as given: a field set to
// false or zero stays false or zero, and Build refuses only a field that
// fails validation (a zero time slice, say). A caller changing one field
// therefore starts from the package's DefaultOptions(). JSON (scenario
// files) names only the fields it changes and is decoded over the
// defaults. The option types carry no omitzero or omitempty tags, so
// encoding a value and resolving the JSON again gives back the same
// value.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"

	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// Base is the kind-agnostic spelling of the credit-core settings every
// policy's options hold (Credit.TimeSlice, Boost, Steal), for sweeps,
// ablations and property runs that apply one setting under every kind,
// whose options nest the credit core differently. Resolve applies it
// before Build; it never turns boost or steal back on.
type Base struct {
	// FixedSlice, when nonzero, replaces the credit core's time slice.
	FixedSlice sim.Time
	// DisableBoost/DisableSteal force the credit core's wake boost and
	// runqueue stealing off.
	DisableBoost bool
	DisableSteal bool
}

// creditCore is credit.Options as the registry sees it.
type creditCore interface{ ApplyOverrides(Base) error }

// applyBase applies base to the credit core in v (the options struct
// itself or a field of it at any depth) and reports whether it found one.
func applyBase(v reflect.Value, base Base) (found bool, err error) {
	if !v.CanInterface() {
		return false, nil
	}
	if c, ok := v.Addr().Interface().(creditCore); ok {
		return true, c.ApplyOverrides(base)
	}
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			if found, err := applyBase(v.Field(i), base); found {
				return true, err
			}
		}
	}
	return false, nil
}

// Descriptor registers one scheduling policy.
type Descriptor struct {
	// Kind is the canonical upper-case policy name (e.g. "ATC").
	Kind string
	// Order places the policy in the paper's comparison sequence
	// (CR=1 … ATC=6); zero means the policy is not part of the compared
	// set.
	Order int
	// Extension marks baselines this repository adds beyond the paper's
	// comparison (HY). Policies with Order 0 and Extension false (EXT)
	// are resolvable but excluded from the evaluation sweeps.
	Extension bool
	// Description is a one-line summary for listings.
	Description string
	// Defaults returns a pointer to a freshly-populated options struct.
	// The pointed-to type defines the policy's options schema.
	Defaults func() any
	// Build turns resolved options (the same pointer type Defaults
	// returns, base overrides applied and credit core validated) into a
	// scheduler factory, validating the rest of the configuration.
	Build func(opts any) (vmm.SchedulerFactory, error)
}

var (
	mu          sync.RWMutex
	descriptors = map[string]Descriptor{}
)

// Register records a policy descriptor. It panics on a duplicate or
// malformed registration — both are programmer errors caught at init.
func Register(d Descriptor) {
	switch {
	case d.Kind == "" || d.Kind != strings.ToUpper(d.Kind):
		panic(fmt.Sprintf("registry: kind %q must be non-empty upper-case", d.Kind))
	case d.Defaults == nil || d.Build == nil:
		panic("registry: " + d.Kind + ": Defaults and Build are required")
	case d.Defaults() == nil || reflect.TypeOf(d.Defaults()).Kind() != reflect.Pointer:
		panic("registry: " + d.Kind + ": Defaults must return a non-nil pointer")
	}
	if found, _ := applyBase(reflect.ValueOf(d.Defaults()).Elem(), Base{}); !found {
		panic("registry: " + d.Kind + ": options hold no credit core")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := descriptors[d.Kind]; dup {
		panic("registry: duplicate kind " + d.Kind)
	}
	for _, other := range descriptors {
		if d.Order != 0 && other.Order == d.Order {
			panic(fmt.Sprintf("registry: %s and %s both claim comparison position %d", d.Kind, other.Kind, d.Order))
		}
	}
	descriptors[d.Kind] = d
}

// Lookup returns the descriptor for kind (case-insensitive).
func Lookup(kind string) (Descriptor, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := descriptors[strings.ToUpper(kind)]
	return d, ok
}

// Kinds returns every registered kind, sorted.
func Kinds() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(descriptors))
	for k := range descriptors {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Compared returns the kinds of the paper's comparison set in the
// paper's order.
func Compared() []string {
	mu.RLock()
	defer mu.RUnlock()
	var ds []Descriptor
	for _, d := range descriptors {
		if d.Order > 0 {
			ds = append(ds, d)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Order < ds[j].Order })
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Kind
	}
	return out
}

// Extensions returns the extension-baseline kinds, sorted.
func Extensions() []string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for k, d := range descriptors {
		if d.Extension {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// UnknownKindError describes an unregistered kind, enumerating the valid
// ones so the caller's typo is diagnosable from the message alone.
func UnknownKindError(kind string) error {
	return fmt.Errorf("unknown scheduler %q (valid: %s)", kind, strings.Join(Kinds(), ", "))
}

// Options resolves the caller's options against the policy's defaults
// and returns the result (the pointer type Defaults returns). opts may be
//   - nil, or a nil pointer to the options struct: the defaults;
//   - a json.RawMessage: a JSON object decoded over the defaults, so the
//     fields it names replace them (unknown fields and trailing data are
//     rejected; an empty message means the defaults);
//   - the registered options struct, by value or pointer: copied
//     unchanged. Nothing is filled in from the defaults; Build refuses
//     the value only if a field fails validation.
func (d Descriptor) Options(opts any) (any, error) {
	out := d.Defaults()
	switch v := opts.(type) {
	case nil:
		return out, nil
	case json.RawMessage:
		if len(v) == 0 {
			return out, nil
		}
		dec := json.NewDecoder(bytes.NewReader(v))
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			return nil, fmt.Errorf("%s options: %w", d.Kind, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("%s options: data after the JSON object", d.Kind)
		}
		return out, nil
	}
	dst := reflect.ValueOf(out).Elem()
	rv := reflect.ValueOf(opts)
	if rv.Type() == reflect.TypeOf(out) {
		if rv.IsNil() {
			return out, nil
		}
		rv = rv.Elem()
	}
	if rv.Type() != dst.Type() {
		return nil, fmt.Errorf("%s options must be %v or raw JSON, got %T", d.Kind, dst.Type(), opts)
	}
	dst.Set(rv)
	return out, nil
}

// Resolve looks kind up, resolves opts (see Descriptor.Options), applies
// the base overrides to its credit core, and builds the scheduler
// factory.
func Resolve(kind string, opts any, base Base) (vmm.SchedulerFactory, error) {
	d, ok := Lookup(kind)
	if !ok {
		return nil, UnknownKindError(kind)
	}
	o, err := d.Options(opts)
	if err != nil {
		return nil, err
	}
	if _, err := applyBase(reflect.ValueOf(o).Elem(), base); err != nil {
		return nil, err
	}
	return d.Build(o)
}

// Validate checks that kind is registered and opts resolve to a buildable
// configuration, without instantiating a scheduler.
func Validate(kind string, opts any) error {
	_, err := Resolve(kind, opts, Base{})
	return err
}
