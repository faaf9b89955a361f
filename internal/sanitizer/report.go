package sanitizer

import (
	"fmt"
	"strings"
)

// Summary is the final result of one or more checked runs.
type Summary struct {
	// Worlds is the number of checked simulations merged in.
	Worlds int
	// Violations holds every recorded violation, in detection order.
	Violations []Violation
	// Dropped counts violations beyond the per-checker cap.
	Dropped int
	// Stats aggregates observation counters.
	Stats Stats
}

// OK reports whether the run was clean.
func (s *Summary) OK() bool { return len(s.Violations) == 0 && s.Dropped == 0 }

// Merge finalizes every checker and combines the results.
func Merge(checkers []*Checker) *Summary {
	sum := &Summary{}
	for _, c := range checkers {
		sum.Absorb(c.Finish())
	}
	return sum
}

// Absorb folds another summary into s.
func (s *Summary) Absorb(o *Summary) {
	s.Worlds += o.Worlds
	s.Violations = append(s.Violations, o.Violations...)
	s.Dropped += o.Dropped
	s.Stats.Add(o.Stats)
}

// Report renders the summary as a deterministic human-readable report.
func (s *Summary) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tlbcheck: %d simulation(s) checked\n", s.Worlds)
	st := s.Stats
	fmt.Fprintf(&b, "  pte changes:       %d (%d restrictive, %d flush windows opened)\n",
		st.PTEChanges, st.RestrictiveChanges, st.ObligationsOpened)
	fmt.Fprintf(&b, "  windows closed:    %d by shootdown, %d by return-to-user\n",
		st.ClosedByShootdown, st.ClosedByUserReturn)
	fmt.Fprintf(&b, "  tlb hits:          %d (%d stale-but-legal in open window, %d in lazy window)\n",
		st.TLBHits, st.StaleLegalOpen, st.StaleLegalLazy)
	fmt.Fprintf(&b, "  selective flushes: %d (%d redundant: removed nothing)\n",
		st.SelectiveFlushes, st.RedundantSelective)
	fmt.Fprintf(&b, "  full flushes:      %d (%d redundant: removed nothing)\n",
		st.FullFlushes, st.RedundantFull)
	fmt.Fprintf(&b, "  ipi requests:      %d across %d shootdowns\n", st.IPIRequests, st.Shootdowns)
	if s.OK() {
		b.WriteString("PASS: no coherence violations\n")
		return b.String()
	}
	counts := map[string]int{}
	order := []string{}
	for _, v := range s.Violations {
		if counts[v.Kind] == 0 {
			order = append(order, v.Kind)
		}
		counts[v.Kind]++
	}
	fmt.Fprintf(&b, "FAIL: %d violation(s)", len(s.Violations)+s.Dropped)
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	fmt.Fprintf(&b, " (%s)\n", strings.Join(parts, ", "))
	for i, v := range s.Violations {
		fmt.Fprintf(&b, "\n[%d] t=%d %s\n", i+1, v.At, indent(v.Msg))
	}
	if s.Dropped > 0 {
		fmt.Fprintf(&b, "\n(%d further violation(s) dropped past the cap)\n", s.Dropped)
	}
	return b.String()
}

func indent(msg string) string {
	return strings.ReplaceAll(msg, "\n", "\n    ")
}
