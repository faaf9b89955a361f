// Package bench is the repository's benchmark: it drives the simulator
// through its public functions, one workload per process, checks every
// cell's result, and prints one JSON line of metrics. See README.md.
//
// Everything lives in _test.go files so that the repository's analyzers,
// which hold simulator code to determinism rules (no wall clock, no
// package state written outside save/restore setters), skip the harness.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

var (
	flagWorkload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty: run the package's tests)")
	flagSeed     = flag.Uint64("seed", 1, "input seed; every cell's seed derives from it")
	flagSeconds  = flag.Float64("seconds", 20, "host seconds of timed passes (at least 3 passes run)")
	flagTrace    = flag.Int("trace", 0, "1: add a profiled pass and print the per-layer metrics instead of the end-to-end ones")
	flagCell     = flag.Int("cell", -1, "rerun only this cell and print its result line")
	flagUpdate   = flag.Bool("update", false, "rewrite the workload's golden file for -seed")
	flagOut      = flag.String("out", "../.bench_build/trace", "directory for the traced pass's CPU profile and spans")
	flagChild    = flag.Bool("setup-child", false, "run one cold pass and print its result lines (used by the set-up runs)")
)

// setupRuns is how many fresh processes measure set-up; the median is
// reported, since a single cold start is noisy.
const setupRuns = 3

// minTimedPasses bounds the timed passes from below so that the median
// has company even when -seconds is short.
const minTimedPasses = 3

func TestMain(m *testing.M) {
	flag.Parse()
	if *flagWorkload == "" {
		os.Exit(m.Run())
	}
	os.Exit(benchMain())
}

func benchMain() int {
	cells, err := cellsFor(*flagWorkload, *flagSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// One OS thread runs Go code and one simulation runs at a time, so the
	// simulator's goroutine handoffs never cross CPUs and a run needs one
	// CPU; with more, pass times vary far more between processes.
	runtime.GOMAXPROCS(1)
	sched.SetWorkers(1)
	h := newHarness(*flagWorkload, *flagSeed, cells, os.Stderr)
	defer h.close()
	switch {
	case *flagChild:
		return h.childMain()
	case *flagCell >= 0:
		return h.cellMain(*flagCell)
	case *flagUpdate:
		return h.updateMain()
	}
	return h.runMain(*flagSeconds, *flagTrace == 1)
}

// harness runs one workload's cells and checks every result.
type harness struct {
	workload string
	seed     uint64
	cells    []cell
	log      io.Writer
	restore  func()

	// Filled by the boot hook while a cell runs.
	worlds    []*workload.World
	boots     []time.Time
	checkers  []*sanitizer.Checker
	detectors []*race.Detector

	attempted, failed int
	reported          map[int]bool // cells whose repro line was printed
}

func newHarness(name string, seed uint64, cells []cell, log io.Writer) *harness {
	h := &harness{workload: name, seed: seed, cells: cells, log: log, reported: map[int]bool{}}
	checked := name == "checked"
	// The hook keeps every booted machine so that each layer's Stats() can
	// be read after the cell's run has shut it down.
	h.restore = workload.SetBootHook(func(w *workload.World) {
		h.worlds = append(h.worlds, w)
		h.boots = append(h.boots, time.Now())
		if !checked {
			return
		}
		h.checkers = append(h.checkers, sanitizer.Attach(w.K, w.F, sanitizer.Config{}))
		d := race.New(w.Eng)
		w.K.EnableRace(d)
		w.F.EnableRace()
		h.detectors = append(h.detectors, d)
	})
	return h
}

func (h *harness) close() { h.restore() }

// cellRun is one execution of one cell.
type cellRun struct {
	// line is the cell key, its simulated result and its layer counts;
	// empty when the cell failed to run.
	line string
	// err says why the cell failed; empty when it ran cleanly.
	err    string
	out    outcome
	counts counts
	// start and end bracket the cell; boot is when its first machine
	// finished booting (zero if it booted none).
	start, boot, end time.Time
}

// runCell runs cell i, recovering a panic into the run's error.
func (h *harness) runCell(i int) (r cellRun) {
	h.worlds, h.boots, h.checkers, h.detectors = h.worlds[:0], h.boots[:0], nil, nil
	r.start = time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Sprintf("panic: %v", p)
			}
		}()
		r.out = h.cells[i].run()
	}()
	r.end = time.Now()
	if len(h.boots) > 0 {
		r.boot = h.boots[0]
	}
	r.counts = r.out.tlb
	for _, w := range h.worlds {
		if n := w.Eng.LiveProcs(); n != 0 && r.err == "" {
			r.err = fmt.Sprintf("%d simulated process(es) still live after the run", n)
		}
		w.Close() // idempotent; unwinds what a panicked cell left parked
		r.counts.addWorld(w)
	}
	for _, c := range h.checkers {
		s := c.Finish()
		if !s.OK() && r.err == "" {
			r.err = fmt.Sprintf("sanitizer reported %d violation(s)", len(s.Violations)+s.Dropped)
			if len(s.Violations) > 0 {
				r.err += ": " + firstLine(s.Violations[0].Msg)
			}
		}
		r.counts[sanitizerPTEChanges] += s.Stats.PTEChanges
		r.counts[sanitizerWindowsOpened] += s.Stats.ObligationsOpened
	}
	for _, d := range h.detectors {
		s := d.Finish()
		if !s.OK() && r.err == "" {
			r.err = fmt.Sprintf("race model reported %d race(s)", len(s.Races)+s.Dropped)
			if len(s.Races) > 0 {
				r.err += ": " + firstLine(s.Races[0].Msg)
			}
		}
		r.counts[raceAcquires] += s.Stats.Acquires
		r.counts[raceCheckedAccesses] += s.Stats.Reads + s.Stats.Writes
	}
	if r.err == "" {
		r.line = strings.TrimSpace(h.cells[i].key + " " + r.out.fields + " " + r.counts.String())
	}
	return r
}

func firstLine(msg string) string {
	first, _, _ := strings.Cut(msg, "\n")
	return first
}

// pass is one run of every cell of the workload, back to back.
type pass struct {
	runs []cellRun
	wall time.Duration
	// bootMs holds, for each cell that booted a machine, the milliseconds
	// from its start to the boot.
	bootMs []float64
	// Go heap activity during the pass.
	mallocs, allocBytes, gcs uint64
}

func (h *harness) pass() pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := pass{runs: make([]cellRun, len(h.cells))}
	t0 := time.Now()
	for i := range h.cells {
		r := h.runCell(i)
		p.runs[i] = r
		if !r.boot.IsZero() {
			p.bootMs = append(p.bootMs, float64(r.boot.Sub(r.start).Nanoseconds())/1e6)
		}
	}
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	return p
}

func (p pass) lines() []string {
	out := make([]string, len(p.runs))
	for i, r := range p.runs {
		out[i] = r.line
	}
	return out
}

func (p pass) errs() []string {
	out := make([]string, len(p.runs))
	for i, r := range p.runs {
		out[i] = r.err
	}
	return out
}

// check counts one execution of every cell and fails those that errored
// or whose line differs from want (the reference named by what). A nil
// want checks errors only.
func (h *harness) check(lines, errs, want []string, what string) {
	for i := range h.cells {
		h.attempted++
		reason := ""
		switch {
		case i < len(errs) && errs[i] != "":
			reason = errs[i]
		case i >= len(lines):
			reason = "no result"
		case want != nil && lines[i] != want[i]:
			reason = fmt.Sprintf("result differs from %s:\n  got  %s\n  want %s", what, lines[i], want[i])
		}
		if reason == "" {
			continue
		}
		h.failed++
		if !h.reported[i] {
			h.reported[i] = true
			fmt.Fprintf(h.log, "bench: %s cell %d (%s) failed: %s\n  repro: %s\n", h.workload, i, h.cells[i].key, reason, h.repro(i))
		}
	}
}

func (h *harness) repro(i int) string {
	return fmt.Sprintf("bash bench/run.sh --workload %s --seed %d --cell %d", h.workload, h.seed, i)
}

// goldenPath is where the committed result lines for a seed live.
func goldenPath(name string, seed uint64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.seed%d.txt", name, seed))
}

// readGolden returns the committed lines for the harness's seed, or nil
// when no golden file exists for it (goldens cover seeds 1 and 2).
func (h *harness) readGolden() ([]string, error) {
	data, err := os.ReadFile(goldenPath(h.workload, h.seed))
	if os.IsNotExist(err) && h.seed > 2 {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(h.cells) {
		return nil, fmt.Errorf("%s has %d lines for %d cells; regenerate it with -update", goldenPath(h.workload, h.seed), len(lines), len(h.cells))
	}
	return lines, nil
}

// childMain runs one cold pass and prints its lines and peak memory for
// the parent.
func (h *harness) childMain() int {
	p := h.pass()
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	out, err := json.Marshal(childReport{Lines: p.lines(), Errs: p.errs(), PeakRSSMB: rss})
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type childReport struct {
	Lines     []string `json:"lines"`
	Errs      []string `json:"errs"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
}

// peakRSSMB returns this process's peak resident set size. The process
// reads it itself: the rusage its parent collects also counts the
// parent's own memory, which the child shared until it called exec.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// setupRun measures set-up in a fresh process: process start, package
// initialization and one cold pass. The time is valid even when err
// reports that the process failed.
func (h *harness) setupRun() (secs float64, rep childReport, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, rep, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", h.workload, "-seed", fmt.Sprint(h.seed), "-setup-child")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with this process
	t0 := time.Now()
	err = cmd.Run()
	secs = time.Since(t0).Seconds()
	if err != nil {
		return secs, rep, fmt.Errorf("set-up run: %w", err)
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return secs, rep, fmt.Errorf("set-up run output: %w", err)
	}
	return secs, rep, nil
}

// cellMain reruns one cell and prints its result line.
func (h *harness) cellMain(i int) int {
	if i >= len(h.cells) {
		fmt.Fprintf(h.log, "bench: %s has %d cells; -cell %d is out of range\n", h.workload, len(h.cells), i)
		return 2
	}
	r := h.runCell(i)
	if r.err != "" {
		fmt.Fprintf(h.log, "bench: %s cell %d (%s) failed: %s\n", h.workload, i, h.cells[i].key, r.err)
		return 1
	}
	fmt.Println(r.line)
	golden, err := h.readGolden()
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	if golden != nil && golden[i] != r.line {
		fmt.Fprintf(h.log, "bench: differs from %s:\n  want %s\n", goldenPath(h.workload, h.seed), golden[i])
		return 1
	}
	return 0
}

// updateMain rewrites the golden file from one clean pass.
func (h *harness) updateMain() int {
	p := h.pass()
	h.check(p.lines(), p.errs(), nil, "")
	if h.failed > 0 {
		fmt.Fprintf(h.log, "bench: %d cell(s) failed; golden not written\n", h.failed)
		return 1
	}
	path := goldenPath(h.workload, h.seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	if err := os.WriteFile(path, []byte(strings.Join(p.lines(), "\n")+"\n"), 0o644); err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	fmt.Fprintf(h.log, "bench: wrote %s (%d cells)\n", path, len(h.cells))
	return 0
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMain is a measured run: set-up runs (untraced only), a cold pass
// that every later pass must reproduce, timed passes for -seconds, and
// with trace a profiled pass; it prints the report. Calibration samples
// bracket every set-up run and every timed pass.
func (h *harness) runMain(seconds float64, trace bool) int {
	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	defer cal.close()
	var setupSecs, rss []float64
	var children []childReport
	cal.sample()
	for k := 0; !trace && k < setupRuns; k++ {
		secs, rep, err := h.setupRun()
		if err != nil {
			// Its cells count as failed below: the report has no lines.
			fmt.Fprintln(h.log, "bench:", err)
		} else {
			rss = append(rss, rep.PeakRSSMB)
		}
		cal.sample()
		setupSecs, children = append(setupSecs, secs*cal.scale()), append(children, rep)
		fmt.Fprintf(h.log, "bench: %s set-up run %d: %.3f s (%.3f s at reference speed), %.1f MB\n",
			h.workload, k+1, secs, secs*cal.scale(), rep.PeakRSSMB)
	}

	cold := h.pass()
	fmt.Fprintf(h.log, "bench: %s cold pass: %.3f s\n", h.workload, cold.wall.Seconds())
	ref := cold.lines()
	golden, err := h.readGolden()
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	h.check(ref, cold.errs(), golden, "the golden file")
	for _, c := range children {
		h.check(c.Lines, c.Errs, ref, "the cold pass")
	}

	var timed []pass
	var walls, refWalls []float64
	cal.sample()
	t0 := time.Now()
	for len(timed) < minTimedPasses || time.Since(t0).Seconds() < seconds {
		p := h.pass()
		cal.sample()
		h.check(p.lines(), p.errs(), ref, "the cold pass")
		// Keeping every pass's results would grow the live heap pass by
		// pass, and with it the spacing of collections: later passes would
		// run with fewer, larger collections than earlier ones.
		p.runs = nil
		timed = append(timed, p)
		walls, refWalls = append(walls, p.wall.Seconds()), append(refWalls, p.wall.Seconds()*cal.scale())
		fmt.Fprintf(h.log, "bench: %s timed pass %d: %.3f s (%.3f s at reference speed)\n",
			h.workload, len(timed), p.wall.Seconds(), p.wall.Seconds()*cal.scale())
	}
	wall := median(walls)
	fmt.Fprintf(h.log, "bench: %s calibration loop: median %.4f s over %d samples, %.4f s at reference speed\n",
		h.workload, median(cal.secs), len(cal.secs), refCalibSecs)

	var rep report
	if trace {
		rep.Metrics = h.layerMetrics(cold, timed, wall)
		shares, tracedWall, err := h.tracedPass(ref, *flagOut)
		if err != nil {
			fmt.Fprintln(h.log, "bench:", err)
			return 1
		}
		for layer, share := range shares {
			rep.Metrics["host."+layer] = metric{share, "share"}
		}
		rep.Metrics["trace.overhead"] = metric{tracedWall/wall - 1, "ratio"}
	} else {
		// Peak RSS moves with where collections land relative to heap
		// growth; the smallest of the set-up peaks is what the workload
		// needs and repeats within about 2%.
		sort.Float64s(rss)
		rep.Metrics = map[string]metric{
			"wall_s":     {median(refWalls), "s"},
			"setup_s":    {median(setupSecs), "s"},
			"max_rss_mb": {append(rss, 0)[0], "MB"}, // 0 if no set-up run succeeded
		}
	}
	rep.Attempted, rep.Failed = h.attempted, h.failed
	rep.Correct = h.failed == 0
	out, err := json.Marshal(rep)
	if err == nil {
		_, err = fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(h.log, "bench:", err)
		return 1
	}
	return 0
}

// layerMetrics derives the per-layer metrics: deterministic counts and
// simulated per-op results from the cold pass, host costs from the timed
// passes and the probes.
func (h *harness) layerMetrics(cold pass, timed []pass, wall float64) map[string]metric {
	ms := map[string]metric{}
	var sum counts
	var cyc, irq, miss []float64
	for _, r := range cold.runs {
		sum.add(r.counts)
		if r.err != "" || r.out.ops == 0 {
			continue
		}
		cyc = append(cyc, r.out.cycles/r.out.ops)
		irq = append(irq, float64(r.counts[kernelIRQCycles])/r.out.ops)
		miss = append(miss, float64(r.counts[tlbMisses])/r.out.ops)
	}
	for i, v := range sum {
		if counter(i) != tlbHits {
			ms[counterNames[i]] = metric{float64(v), "count"}
		}
	}
	ms["sim.cycles"] = metric{float64(sum[simCycles]), "cycles"}
	ms["kernel.irq_cycles"] = metric{float64(sum[kernelIRQCycles]), "cycles"}
	ms["sim.mcycles_per_s"] = metric{float64(sum[simCycles]) / 1e6 / wall, "Mcycles/s"}
	ms["sim_cycles_per_op"] = metric{geomean(cyc), "cycles"}
	ms["sim_irq_cycles_per_op"] = metric{geomean(irq), "cycles"}
	ms["sim_tlb_misses_per_op"] = metric{geomean(miss), "count"}
	ratio := 0.0
	if n := sum[tlbHits] + sum[tlbMisses]; n > 0 {
		ratio = float64(sum[tlbHits]) / float64(n)
	}
	ms["tlb.hit_ratio"] = metric{ratio, "ratio"}

	var boots, mallocs, allocMB, gcs []float64
	for _, p := range timed {
		boots = append(boots, p.bootMs...)
		mallocs = append(mallocs, float64(p.mallocs))
		allocMB = append(allocMB, float64(p.allocBytes)/1e6)
		gcs = append(gcs, float64(p.gcs))
	}
	ms["kernel.boot_ms"] = metric{median(boots), "ms"}
	ms["runtime.allocs_per_pass"] = metric{median(mallocs), "count"}
	ms["runtime.alloc_mb_per_pass"] = metric{median(allocMB), "MB"}
	ms["runtime.gc_per_pass"] = metric{median(gcs), "count"}
	for name, m := range probes() {
		ms[name] = m
	}
	return ms
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of the positive values, 0 if none.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
