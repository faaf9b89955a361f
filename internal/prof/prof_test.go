package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWritten: with both flags set, Start/Stop leave a non-empty
// CPU and allocation profile behind.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty profile (%v)", filepath.Base(path), err)
		}
	}
}

// TestProfilesOffByDefault: without flags, Start and Stop do nothing, and
// an unwritable path is reported rather than ignored.
func TestProfilesOffByDefault(t *testing.T) {
	p := Register(flag.NewFlagSet("test", flag.ContinueOnError))
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	bad := &Profiles{cpuPath: filepath.Join(t.TempDir(), "missing", "cpu.out")}
	if err := bad.Start(); err == nil {
		t.Fatal("Start into a missing directory succeeded")
	}
}
