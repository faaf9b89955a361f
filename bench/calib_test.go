package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// refCalibSecs is the calibration loop's median time on the reference
// host (a 2-vCPU Intel Xeon VM at 2.1 GHz, Go 1.24.0).
const refCalibSecs = 0.044

const (
	calibEntries = 4096    // map entries: the table fits in L2
	calibLookups = 2000000 // half of them miss
	chainSlots   = 1 << 22 // 4-byte slots: 16 MiB, past the last-level cache
	chainSteps   = 200000
)

// calibrator times a fixed loop between the timed intervals of a run, and
// scales each interval to reference-host seconds by the loop's speed just
// before and just after it. The host is shared, and the speed it gives
// the process drifts by a tenth or more over minutes; the loop slows with
// it, but the program cannot move it. The loop does map lookups in a
// small table and then follows a random cycle through memory, which
// together track the simulator's slowdowns better than either part alone.
// It allocates nothing, so no collection runs during it, and the cycle
// lives outside the Go heap, so the collector paces the program as it
// would without the calibrator.
type calibrator struct {
	table map[uint64]uint64
	chain []byte // chainSlots little-endian uint32s: slot i holds the next slot
	secs  []float64
}

func newCalibrator() (*calibrator, error) {
	chain, err := syscall.Mmap(-1, 0, 4*chainSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{table: make(map[uint64]uint64, calibEntries), chain: chain}
	for i := uint64(0); i < calibEntries; i++ {
		c.table[i*0x9e3779b97f4a7c15] = i
	}
	// Sattolo's shuffle of the identity is a single cycle through every
	// slot, so the walk never settles into a cached loop.
	for i := 0; i < chainSlots; i++ {
		c.slot(i, uint32(i))
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := chainSlots - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		vi, vj := c.next(i), c.next(j)
		c.slot(i, vj)
		c.slot(j, vi)
	}
	c.loop() // the first walk after the shuffle runs faster than later ones
	return c, nil
}

func (c *calibrator) next(i int) uint32    { return binary.LittleEndian.Uint32(c.chain[4*i:]) }
func (c *calibrator) slot(i int, v uint32) { binary.LittleEndian.PutUint32(c.chain[4*i:], v) }

func (c *calibrator) close() error { return syscall.Munmap(c.chain) }

// calibSink keeps the loop's result live.
var calibSink uint64

// loop runs the calibration loop once and returns its host seconds.
func (c *calibrator) loop() float64 {
	var sum uint64
	t0 := time.Now()
	for i := uint64(0); i < calibLookups; i++ {
		sum += c.table[i%(2*calibEntries)*0x9e3779b97f4a7c15]
	}
	at := 0
	for i := 0; i < chainSteps; i++ {
		at = int(c.next(at))
	}
	secs := time.Since(t0).Seconds()
	calibSink = sum + uint64(at)
	return secs
}

// sample records one loop time, after a collection so that none is in
// progress during it.
func (c *calibrator) sample() {
	runtime.GC()
	c.secs = append(c.secs, c.loop())
}

// scale converts host seconds of the interval between the last two
// samples into reference-host seconds.
func (c *calibrator) scale() float64 {
	n := len(c.secs)
	return refCalibSecs / ((c.secs[n-2] + c.secs[n-1]) / 2)
}
