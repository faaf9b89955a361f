package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseConfigInvertsString sets every combination of Config's boolean
// toggles by reflection, independently of the name table, and requires
// ParseConfig(c.String()) == c for all of them.
func TestParseConfigInvertsString(t *testing.T) {
	n := reflect.TypeOf(Config{}).NumField()
	if n != 13 {
		t.Fatalf("Config has %d fields; extend this test and the name table together", n)
	}
	for mask := 0; mask < 1<<n; mask++ {
		var c Config
		v := reflect.ValueOf(&c).Elem()
		for i := 0; i < n; i++ {
			v.Field(i).SetBool(mask&(1<<i) != 0)
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
// naming it, and so is an empty list element.
func TestParseConfigRejectsUnknown(t *testing.T) {
	for _, in := range []string{"bogus", "concurrent+bogus", "concurrent,,earlyack", "Concurrent", "all+cow", "baseline+cow"} {
		if c, err := ParseConfig(in); err == nil {
			t.Errorf("ParseConfig(%q) = %+v, want an error", in, c)
		}
	}
	_, err := ParseConfig("concurrent+bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown optimization "bogus"`) {
		t.Fatalf("error %v does not name the unknown optimization", err)
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
