package core

import (
	"reflect"
	"strings"
	"testing"

	"shootdown/internal/fault"
)

// TestParseConfigInvertsString sets every combination of Config's boolean
// toggles by reflection, independently of the name table, with every
// mutant, and requires ParseConfig(c.String()) == c for all of them.
func TestParseConfigInvertsString(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	var bools []int
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Bool {
			bools = append(bools, i)
		}
	}
	if typ.NumField() != 11 || len(bools) != 10 {
		t.Fatalf("Config has %d fields, %d of them bools; extend this test and the name table together", typ.NumField(), len(bools))
	}
	for _, m := range append([]fault.Mutant{fault.NoMutant}, fault.Mutants()...) {
		for mask := 0; mask < 1<<len(bools); mask++ {
			c := Config{Mutant: m}
			v := reflect.ValueOf(&c).Elem()
			for bit, field := range bools {
				v.Field(field).SetBool(mask&(1<<bit) != 0)
			}
			got, err := ParseConfig(c.String())
			if err != nil {
				t.Fatalf("ParseConfig(%q): %v", c.String(), err)
			}
			if got != c {
				t.Fatalf("ParseConfig(%q) = %+v, want %+v", c.String(), got, c)
			}
		}
	}
}

// TestParseConfigSpellings pins the documented command-line spellings:
// "baseline", "all" (the figures' four §3 techniques) and comma lists.
func TestParseConfigSpellings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Config
	}{
		{"", Baseline()},
		{"baseline", Baseline()},
		{"all", AllGeneral()},
		{"concurrent,earlyack", Config{ConcurrentFlush: true, EarlyAck: true}},
		{"concurrent, earlyack", Config{ConcurrentFlush: true, EarlyAck: true}},
		{"concurrent+earlyack", Config{ConcurrentFlush: true, EarlyAck: true}},
		{"async", Config{AsyncShootdown: true}},
	} {
		got, err := ParseConfig(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseConfig(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

// TestParseConfigRejectsUnknown: a name outside the table is an error
// naming it, and so is an empty list element. A mutant needs its
// BROKEN- prefix, and a config plants at most one.
func TestParseConfigRejectsUnknown(t *testing.T) {
	for _, in := range []string{"bogus", "concurrent+bogus", "concurrent,,earlyack", "Concurrent", "all+cow", "baseline+cow",
		"coalesce", "BROKEN-none", "BROKEN-bogus"} {
		if c, err := ParseConfig(in); err == nil {
			t.Errorf("ParseConfig(%q) = %+v, want an error", in, c)
		}
	}
	_, err := ParseConfig("concurrent+bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown optimization "bogus"`) {
		t.Fatalf("error %v does not name the unknown optimization", err)
	}
	c, err := ParseConfig("async+BROKEN-ackdrain+BROKEN-coalesce")
	if err == nil || !strings.Contains(err.Error(), "at most one mutant") {
		t.Fatalf("two mutants in one config = %+v, %v; want an error", c, err)
	}
}

// FuzzParseConfig: no config string panics, and ParseConfig inverts
// String on every config it accepts.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ParseConfig(in)
		if err != nil {
			return
		}
		again, err := ParseConfig(c.String())
		if err != nil || again != c {
			t.Fatalf("ParseConfig(%q) = %+v, but ParseConfig(%q) = %+v, %v", in, c, c.String(), again, err)
		}
	})
}
