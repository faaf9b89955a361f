// Package prof wires the -cpuprofile and -memprofile flags of the
// repository's commands to runtime/pprof, so a slow experiment can be
// profiled without editing code:
//
//	tlbsim -exp fig10 -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package prof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the profile paths a command was asked to write.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// Register adds -cpuprofile and -memprofile to fs. Call Start after fs is
// parsed and Stop before the command exits.
func Register(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to `file` (go tool pprof)")
	fs.StringVar(&p.memPath, "memprofile", "", "write an allocation profile to `file` at exit (go tool pprof; -sample_index=inuse_space for the live heap)")
	return p
}

// Start begins CPU profiling if -cpuprofile was given.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop ends CPU profiling and writes the allocation profile, as requested.
func (p *Profiles) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != "" {
		errs = append(errs, writeAllocs(p.memPath))
	}
	return errors.Join(errs...)
}

// writeAllocs writes the allocation profile after a GC, so its in-use
// samples reflect the live heap at exit.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
