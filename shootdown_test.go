package shootdown

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m, err := NewMachine(WithMode(Safe), WithConfig(AllGeneral()), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCPUs() != 56 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
	proc := m.NewProcess("app")
	stop := false
	proc.Go(2, "responder", func(th *Thread) {
		th.SpinUntil(func() bool { return stop }, 2000)
	})
	var madviseCycles uint64
	main := proc.Go(0, "main", func(th *Thread) {
		th.Compute(5000)
		v, err := th.MMap(8*PageSize, ProtRead|ProtWrite, MapAnon, nil, 0)
		if err != nil {
			t.Error(err)
			stop = true
			return
		}
		for i := uint64(0); i < 8; i++ {
			if err := th.Write(v.Start + i*PageSize); err != nil {
				t.Error(err)
			}
		}
		start := th.Now()
		if err := th.Madvise(v.Start, 8*PageSize); err != nil {
			t.Error(err)
		}
		madviseCycles = th.Now() - start
		stop = true
	})
	m.Run()
	if !main.Done() {
		t.Fatal("main thread did not finish")
	}
	if madviseCycles == 0 {
		t.Fatal("no cycles measured")
	}
	if m.Stats().Shootdowns == 0 {
		t.Fatal("no shootdown occurred")
	}
	if m.Interrupted(2) == 0 {
		t.Fatal("responder was never interrupted")
	}
}

func TestMachineOptions(t *testing.T) {
	m, err := NewMachine(WithTopology(1, 4, 2), WithMode(Unsafe))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCPUs() != 8 {
		t.Fatalf("NumCPUs = %d", m.NumCPUs())
	}
}

func TestMismatchedConfigRejected(t *testing.T) {
	// NewMachine wires the SMP layout from the config, so this cannot
	// actually mismatch — verify it constructs for every layout.
	for _, cfg := range []Config{Baseline(), {CachelineConsolidation: true}, {HWMessageIPI: true}} {
		m, err := NewMachine(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
}

// TestNewMachineReturnsErrors: malformed options come back as errors, not
// panics.
func TestNewMachineReturnsErrors(t *testing.T) {
	for name, opt := range map[string]Option{
		"zero topology":     WithTopology(0, 0, 0),
		"negative topology": WithTopology(2, -1, 2),
		"competing tiers":   WithConfig(Config{AsyncShootdown: true, SerializedIPIs: true}),
	} {
		if m, err := NewMachine(opt); err == nil {
			m.Close()
			t.Errorf("%s: NewMachine returned no error", name)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "nope", true, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentTable4(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table4", true, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "bare-metal") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 15 {
		t.Fatalf("names = %v", names)
	}
	if _, err := Tables(names[0], true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackedWorkflow(t *testing.T) {
	m, err := NewMachine(WithConfig(AllOptimizations()))
	if err != nil {
		t.Fatal(err)
	}
	file := m.NewFile("data", 16*PageSize)
	proc := m.NewProcess("db")
	task := proc.Go(0, "writer", func(th *Thread) {
		v, err := th.MMap(16*PageSize, ProtRead|ProtWrite, MapFileShared, file, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 16; i++ {
			if err := th.Write(v.Start + i*PageSize); err != nil {
				t.Error(err)
			}
		}
		if file.DirtyCount() != 16 {
			t.Errorf("dirty = %d", file.DirtyCount())
		}
		if err := th.Fdatasync(file); err != nil {
			t.Error(err)
		}
		if file.DirtyCount() != 0 {
			t.Errorf("dirty after sync = %d", file.DirtyCount())
		}
		if err := th.Msync(v.Start, 16*PageSize); err != nil {
			t.Error(err)
		}
		if err := th.Mprotect(v.Start, 4*PageSize, ProtRead); err != nil {
			t.Error(err)
		}
		if err := th.Munmap(v.Start, v.Len()); err != nil {
			t.Error(err)
		}
	})
	m.Run()
	if !task.Done() {
		t.Fatal("task incomplete")
	}
}
