package registry_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"atcsched/internal/core"
	"atcsched/internal/netmodel"
	"atcsched/internal/sched/atc"
	"atcsched/internal/sched/cosched"
	"atcsched/internal/sched/registry"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"

	_ "atcsched/internal/sched/all"
)

func TestKindsAndOrdering(t *testing.T) {
	wantCompared := []string{"CR", "BS", "CS", "DSS", "VS", "ATC"}
	got := registry.Compared()
	if len(got) != len(wantCompared) {
		t.Fatalf("Compared() = %v, want %v", got, wantCompared)
	}
	for i := range got {
		if got[i] != wantCompared[i] {
			t.Fatalf("Compared() = %v, want %v", got, wantCompared)
		}
	}
	wantExt := []string{"ATCDFRS", "DFRS", "HY"}
	ext := registry.Extensions()
	if len(ext) != len(wantExt) {
		t.Fatalf("Extensions() = %v, want %v", ext, wantExt)
	}
	for i := range ext {
		if ext[i] != wantExt[i] {
			t.Fatalf("Extensions() = %v, want %v", ext, wantExt)
		}
	}
	kinds := registry.Kinds()
	if len(kinds) != 10 {
		t.Errorf("Kinds() = %v, want all 10 policies", kinds)
	}
	for _, k := range []string{"CR", "BS", "CS", "DSS", "VS", "ATC", "HY", "EXT", "DFRS", "ATCDFRS"} {
		if _, ok := registry.Lookup(k); !ok {
			t.Errorf("Lookup(%q) failed", k)
		}
		if _, ok := registry.Lookup(strings.ToLower(k)); !ok {
			t.Errorf("Lookup is not case-insensitive for %q", k)
		}
	}
}

func TestUnknownKindEnumeratesValid(t *testing.T) {
	_, err := registry.Resolve("NOPE", nil, registry.Base{})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	msg := err.Error()
	for _, k := range registry.Kinds() {
		if !strings.Contains(msg, k) {
			t.Errorf("error %q does not list valid kind %s", msg, k)
		}
	}
}

// TestUnknownKindErrorDeterministic pins the exact unknown-kind message:
// the valid-kind list must be sorted, never map-iteration order, so
// callers (and fuzz targets) can assert on the message byte-for-byte
// and two runs never disagree.
func TestUnknownKindErrorDeterministic(t *testing.T) {
	want := `unknown scheduler "NOPE" (valid: ATC, ATCDFRS, BS, CR, CS, DFRS, DSS, EXT, HY, VS)`
	for i := 0; i < 10; i++ {
		if got := registry.UnknownKindError("NOPE").Error(); got != want {
			t.Fatalf("attempt %d:\n got %q\nwant %q", i, got, want)
		}
	}
	if _, err := registry.Resolve("NOPE", nil, registry.Base{}); err == nil || err.Error() != want {
		t.Errorf("Resolve error = %v, want %q", err, want)
	}
}

// TestPartialOptionsMerge pins the options contract for Go callers: the
// options struct is the whole configuration, so a partial one (just α)
// is refused by validation instead of being filled in from the defaults,
// and DefaultOptions() with α changed keeps every other default.
func TestPartialOptionsMerge(t *testing.T) {
	partial := atc.Options{Control: core.Params{Alpha: 9 * sim.Millisecond}}
	if err := registry.Validate("ATC", partial); err == nil || !strings.Contains(err.Error(), "credit: time slice must be positive") {
		t.Errorf("partial options struct: err = %v, want the credit time-slice refusal", err)
	}
	opts := atc.DefaultOptions()
	opts.Control.Alpha = 9 * sim.Millisecond
	d, _ := registry.Lookup("ATC")
	got, err := d.Options(&opts)
	if err != nil {
		t.Fatal(err)
	}
	want := atc.DefaultOptions()
	want.Control.Alpha = 9 * sim.Millisecond
	if *got.(*atc.Options) != want {
		t.Errorf("resolved %+v, want %+v", *got.(*atc.Options), want)
	}
	if err := registry.Validate("ATC", opts); err != nil {
		t.Errorf("defaults with α changed do not validate: %v", err)
	}
}

// boolFields returns the index path of every bool field in t, nested
// structs included.
func boolFields(t reflect.Type) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Type.Kind() {
		case reflect.Bool:
			out = append(out, []int{i})
		case reflect.Struct:
			for _, sub := range boolFields(f.Type) {
				out = append(out, append([]int{i}, sub...))
			}
		}
	}
	return out
}

// TestOptionsRoundTripEveryKind checks, for every registered kind, that
// an options value survives resolution unchanged: passed as a struct, as
// a pointer, and as its own JSON encoding. It covers the defaults and
// the defaults with each bool field flipped — a false that reverted to
// a true default would show here.
func TestOptionsRoundTripEveryKind(t *testing.T) {
	for _, k := range registry.Kinds() {
		d, _ := registry.Lookup(k)
		typ := reflect.TypeOf(d.Defaults()).Elem()
		values := []any{d.Defaults()}
		for _, path := range boolFields(typ) {
			x := d.Defaults()
			f := reflect.ValueOf(x).Elem().FieldByIndex(path)
			f.SetBool(!f.Bool())
			values = append(values, x)
		}
		if len(values) < 3 {
			t.Errorf("%s: only %d bool fields found, want boost and steal at least", k, len(values)-1)
		}
		for _, x := range values {
			b, err := json.Marshal(x)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			for _, in := range []any{x, reflect.ValueOf(x).Elem().Interface(), json.RawMessage(b)} {
				got, err := d.Options(in)
				if err != nil {
					t.Fatalf("%s: Options(%T): %v", k, in, err)
				}
				if !reflect.DeepEqual(got, x) {
					t.Errorf("%s: Options(%T) = %+v, want %+v", k, in, got, x)
				}
			}
		}
	}
}

func TestJSONOptionsMerge(t *testing.T) {
	d, _ := registry.Lookup("CS")
	merged, err := d.Options(json.RawMessage(`{"spinWaitThreshold": "150us"}`))
	if err != nil {
		t.Fatal(err)
	}
	o := merged.(*cosched.Options)
	if o.SpinWaitThreshold != 150*sim.Microsecond {
		t.Errorf("threshold = %v, want 150us", o.SpinWaitThreshold)
	}
	if o.CalmPeriods != cosched.DefaultOptions().CalmPeriods {
		t.Errorf("calm periods default lost: %d", o.CalmPeriods)
	}
	// Explicit false in JSON overrides a true default.
	merged, err = d.Options(json.RawMessage(`{"credit": {"boost": false}}`))
	if err != nil {
		t.Fatal(err)
	}
	if merged.(*cosched.Options).Credit.Boost {
		t.Error("explicit boost:false ignored")
	}
	// Unknown fields are rejected, not ignored.
	if _, err := d.Options(json.RawMessage(`{"frobnicate": 1}`)); err == nil {
		t.Error("unknown option field accepted")
	}
	// So is anything after the object.
	for _, trailing := range []string{`{"calmPeriods": 4} x`, `{"calmPeriods": 4}{}`, `{}}`} {
		if _, err := d.Options(json.RawMessage(trailing)); err == nil {
			t.Errorf("trailing data accepted: %s", trailing)
		}
	}
	if _, err := d.Options(json.RawMessage("{\"calmPeriods\": 4}\n")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
	// A nil pointer to the options struct means the defaults, like nil.
	got, err := d.Options((*cosched.Options)(nil))
	if err != nil {
		t.Fatalf("nil options pointer: %v", err)
	}
	if *got.(*cosched.Options) != cosched.DefaultOptions() {
		t.Errorf("nil options pointer = %+v, want the defaults", *got.(*cosched.Options))
	}
	// ATC's default slice is the credit core's time slice; the controller
	// tuning has no second copy of it to set.
	if err := registry.Validate("ATC", json.RawMessage(`{"control": {"default": "10ms"}}`)); err == nil {
		t.Error("ATC control.default accepted")
	}
	// Wrong struct type is rejected, and so are bytes that are not a
	// json.RawMessage.
	if _, err := d.Options(atc.Options{}); err == nil {
		t.Error("wrong options type accepted")
	}
	if _, err := d.Options([]byte(`{"calmPeriods": 4}`)); err == nil {
		t.Error("[]byte options accepted")
	}
}

func TestBaseOverrides(t *testing.T) {
	f, err := registry.Resolve("CR", nil, registry.Base{FixedSlice: 6 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w := vmm.MustNewWorld(1, vmm.DefaultNodeConfig(), netmodel.DefaultConfig(), f)
	vm := w.Node(0).NewVM("x", vmm.ClassNonParallel, 1, 0, 1)
	if got := w.Node(0).Scheduler().Slice(vm.VCPU(0)); got != 6*sim.Millisecond {
		t.Errorf("fixed slice not applied: %v", got)
	}
	if _, err := registry.Resolve("CR", nil, registry.Base{FixedSlice: -1}); err == nil {
		t.Error("negative fixed slice accepted")
	}
	// ATC's controller relaxes toward the credit core's slice, so a fixed
	// slice moves both.
	f, err = registry.Resolve("ATC", nil, registry.Base{FixedSlice: 6 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w = vmm.MustNewWorld(1, vmm.DefaultNodeConfig(), netmodel.DefaultConfig(), f)
	if got := w.Node(0).Scheduler().(*atc.Scheduler).Controller().Config().Default; got != 6*sim.Millisecond {
		t.Errorf("ATC controller default = %v, want the fixed 6ms slice", got)
	}
}

// TestRegisterRequiresCreditCore: Resolve applies the base overrides to
// the credit core in every policy's options, so a policy whose options
// hold none is a registration error, not an override silently dropped.
func TestRegisterRequiresCreditCore(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no credit core") {
			t.Errorf("recovered %v, want the missing credit core panic", r)
		}
	}()
	registry.Register(registry.Descriptor{
		Kind:     "NOCORE",
		Defaults: func() any { return &struct{ Slice sim.Time }{} },
		Build:    func(any) (vmm.SchedulerFactory, error) { return nil, nil },
	})
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := map[string]struct{ kind, opts string }{
		"negative slice":   {"CR", `{"timeSlice": "-5ms"}`},
		"alpha below beta": {"ATC", `{"control": {"alpha": "0.1ms"}}`},
		"bad smoothing":    {"DSS", `{"smoothing": 2}`},
		"cs threshold":     {"CS", `{"spinWaitThreshold": "-1us"}`},
	}
	for name, c := range cases {
		if err := registry.Validate(c.kind, json.RawMessage(c.opts)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, k := range registry.Kinds() {
		if err := registry.Validate(k, nil); err != nil {
			t.Errorf("%s defaults do not validate: %v", k, err)
		}
	}
}
