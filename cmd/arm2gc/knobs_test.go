package main

import (
	"flag"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"arm2gc/internal/cli"
)

// TestKnobInventory pins the user-settable surface of the tool against
// testdata/knobs.txt: every cmd/arm2gc flag and every registry-manifest
// key. Adding or removing a knob shows up as a one-line diff of that file,
// so the count of settable values stays a reviewed number.
func TestKnobInventory(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, "flag -"+f.Name)
		}
	})
	got = append(got, manifestKeys("registry ", reflect.TypeOf(cli.RegistryManifest{}))...)
	slices.Sort(got)

	raw, err := os.ReadFile("testdata/knobs.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	slices.Sort(want)
	for _, k := range got {
		if !slices.Contains(want, k) {
			t.Errorf("%s is settable but not in testdata/knobs.txt", k)
		}
	}
	for _, k := range want {
		if !slices.Contains(got, k) {
			t.Errorf("testdata/knobs.txt lists %s, which no longer exists", k)
		}
	}
}

// manifestKeys lists the JSON keys a manifest of type typ accepts, nested
// objects as dotted paths and arrays of objects as "[]".
func manifestKeys(prefix string, typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		keys = append(keys, prefix+name)
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			if ft.Kind() == reflect.Slice {
				name += "[]"
			}
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			keys = append(keys, manifestKeys(prefix+name+".", ft)...)
		}
	}
	return keys
}
