package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// tracedPass runs one more pass with the CPU profiler on, writes the
// profile and the pass's per-cell spans under dir, and returns each host
// layer's share of the profile's samples and the pass's wall seconds.
func (h *harness) tracedPass(ref []string, dir string) (map[string]float64, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s.seed%d", h.workload, h.seed))
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, 0, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	p := h.pass()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	h.check(p.lines(), p.errs(), ref, "the cold pass")
	if err := h.writeSpans(base+".spans.json", p); err != nil {
		return nil, 0, err
	}
	shares, err := hostShares(base + ".cpu.pprof")
	return shares, p.wall.Seconds(), err
}

// span is one trace-event ("X", complete) record; times are µs since the
// pass began.
type span struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args spanAttrs `json:"args"`
}

// spanAttrs ties the spans of one cell together.
type spanAttrs struct {
	Cell int    `json:"cell"`
	Key  string `json:"key"`
}

// writeSpans writes the pass as trace-event JSON: per cell a "cell" span
// and, when it booted a machine, "boot" (call to boot hook) and
// "simulate" (boot hook to return) child spans.
func (h *harness) writeSpans(path string, p pass) error {
	origin := p.runs[0].start
	var events []span
	for i, r := range p.runs {
		emit := func(name string, from, to int64) {
			events = append(events, span{Name: name, Ph: "X", Ts: float64(from) / 1e3, Dur: float64(to-from) / 1e3,
				Pid: 1, Tid: 1, Args: spanAttrs{Cell: i, Key: h.cells[i].key}})
		}
		start, end := r.start.Sub(origin).Nanoseconds(), r.end.Sub(origin).Nanoseconds()
		emit("cell", start, end)
		if !r.boot.IsZero() {
			boot := r.boot.Sub(origin).Nanoseconds()
			emit("boot", start, boot)
			emit("simulate", boot, end)
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents []span `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// simLayers are the simulator packages that get a host bucket of their
// own; the rest of internal/ (the cell scheduler, stats, faults, ...)
// counts as "other".
var simLayers = []string{"sim", "kernel", "core", "smp", "apic", "cache", "tlb",
	"mm", "pagetable", "mach", "virt", "workload", "sanitizer", "race"}

// hostLayers are the buckets CPU samples are attributed to: the Go
// runtime split into scheduler and memory management (allocation and
// GC), one bucket per simulator layer, and everything else.
var hostLayers = append(append([]string{"sched", "gc"}, simLayers...), "other")

// hostShares reads every sampled stack of a CPU profile (via
// `go tool pprof -traces`) and returns each host layer's share of the
// samples. A sample belongs to the first frame, walking from the leaf
// towards the root, that stackLayer can place.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	for _, l := range hostLayers {
		shares[l] = 0
	}
	total := 0.0
	// Each sample is a separator line, then "<value>ns   <leaf>", then one
	// indented line per caller.
	var value float64
	var frames []string
	flush := func() {
		if frames != nil {
			shares[stackLayer(frames)] += value
			total += value
		}
		frames = nil
	}
	started := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if frames == nil {
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ns"), 64)
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("go tool pprof: unexpected sample line %q", line)
			}
			value, fields = v, fields[1:]
		}
		frames = append(frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", profile)
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// stackLayer places one sampled stack, leaf first: the first frame that
// is a simulator package, or a runtime function that manages memory or
// schedules goroutines, decides. Other runtime helpers (map operations,
// hashing, memmove), the standard library and the harness are passed
// over, so a layer is charged for the helpers it calls itself. A stack
// with no deciding frame is "other".
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// frameLayer returns the host layer one function decides, or "" if it
// is passed over.
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime":
		return runtimeLayer(strings.ToLower(strings.TrimPrefix(fn, "runtime.")))
	case pkg == "internal/runtime/syscall":
		return "sched"
	case strings.HasPrefix(pkg, "shootdown/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "shootdown/internal/"), "/")
		if layer == "syscalls" {
			return "kernel" // the simulated kernel's system-call entry points
		}
		for _, l := range simLayers {
			if l == layer {
				return l
			}
		}
		return "other" // the cell scheduler, stats, faults, reports
	}
	return ""
}

// funcPackage returns the import path of a profiled function name such
// as "shootdown/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Name fragments of runtime functions that allocate or collect memory,
// and of those that schedule goroutines (channels, parking, locks, timers,
// stacks). Memory management is matched first.
var (
	gcFragments = []string{"gc", "mark", "scan", "sweep", "malloc", "mspan", "mheap", "mcache",
		"mcentral", "heapbits", "greyobject", "findobject", "wbbuf", "barrier", "scaveng",
		"pagealloc", "newobject", "newarray", "makeslice", "growslice", "memclrnoheappointers",
		"nextfree", "settype", "typepointers", "spanof", "sysalloc", "sysused", "madvise", "arena"}
	schedFragments = []string{"sched", "chan", "lock", "park", "futex", "note", "ready", "casgstatus",
		"execute", "mcall", "gogo", "runq", "wakep", "startm", "stopm", "spinning", "nanotime",
		"usleep", "osyield", "procyield", "sudog", "goexit", "newproc", "gfget", "gfput", "sysmon",
		"timer", "netpoll", "select", "steal", "stack", "syscall", "mstart", "handoff",
		"acquirem", "releasem", "preempt", "send", "recv"}
)

func runtimeLayer(fn string) string {
	for _, f := range gcFragments {
		if strings.Contains(fn, f) {
			return "gc"
		}
	}
	for _, f := range schedFragments {
		if strings.Contains(fn, f) {
			return "sched"
		}
	}
	return ""
}
