// Fixture: a cpu-confined access with no owner check. peekGen records a
// plain read of a CPU's TLB generation ("cpu%d.tlbgen", cpu-confined in
// the race registry) without first calling kernel.CPU's owner check, so
// nothing stops a proc on another CPU from running it. The lockset
// analyzer must report exactly one finding, naming cpu.tlbgen.
package locksetfix

import (
	"fmt"

	"shootdown/internal/mach"
	"shootdown/internal/race"
)

func peekGen(d *race.Detector, cpu mach.CPU) {
	d.ReadVar(fmt.Sprintf("cpu%d.tlbgen", cpu))
}
