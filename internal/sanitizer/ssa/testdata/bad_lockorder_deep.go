// Fixture: a 51-deep chain of lock helpers, callers declared before
// callees, so each round of the lockorder summary fixpoint carries the
// held lock one level up and the chain needs 52 rounds. lockorder's
// rounds are not monotone, so they stop at 50 and report the summaries
// still changing instead of trusting them: exactly one finding.
package lockdeep

import (
	"shootdown/internal/mm"
	"shootdown/internal/sim"
)

func l1(p *sim.Proc, s *mm.RWSem) { l2(p, s) }

func l2(p *sim.Proc, s *mm.RWSem) { l3(p, s) }

func l3(p *sim.Proc, s *mm.RWSem) { l4(p, s) }

func l4(p *sim.Proc, s *mm.RWSem) { l5(p, s) }

func l5(p *sim.Proc, s *mm.RWSem) { l6(p, s) }

func l6(p *sim.Proc, s *mm.RWSem) { l7(p, s) }

func l7(p *sim.Proc, s *mm.RWSem) { l8(p, s) }

func l8(p *sim.Proc, s *mm.RWSem) { l9(p, s) }

func l9(p *sim.Proc, s *mm.RWSem) { l10(p, s) }

func l10(p *sim.Proc, s *mm.RWSem) { l11(p, s) }

func l11(p *sim.Proc, s *mm.RWSem) { l12(p, s) }

func l12(p *sim.Proc, s *mm.RWSem) { l13(p, s) }

func l13(p *sim.Proc, s *mm.RWSem) { l14(p, s) }

func l14(p *sim.Proc, s *mm.RWSem) { l15(p, s) }

func l15(p *sim.Proc, s *mm.RWSem) { l16(p, s) }

func l16(p *sim.Proc, s *mm.RWSem) { l17(p, s) }

func l17(p *sim.Proc, s *mm.RWSem) { l18(p, s) }

func l18(p *sim.Proc, s *mm.RWSem) { l19(p, s) }

func l19(p *sim.Proc, s *mm.RWSem) { l20(p, s) }

func l20(p *sim.Proc, s *mm.RWSem) { l21(p, s) }

func l21(p *sim.Proc, s *mm.RWSem) { l22(p, s) }

func l22(p *sim.Proc, s *mm.RWSem) { l23(p, s) }

func l23(p *sim.Proc, s *mm.RWSem) { l24(p, s) }

func l24(p *sim.Proc, s *mm.RWSem) { l25(p, s) }

func l25(p *sim.Proc, s *mm.RWSem) { l26(p, s) }

func l26(p *sim.Proc, s *mm.RWSem) { l27(p, s) }

func l27(p *sim.Proc, s *mm.RWSem) { l28(p, s) }

func l28(p *sim.Proc, s *mm.RWSem) { l29(p, s) }

func l29(p *sim.Proc, s *mm.RWSem) { l30(p, s) }

func l30(p *sim.Proc, s *mm.RWSem) { l31(p, s) }

func l31(p *sim.Proc, s *mm.RWSem) { l32(p, s) }

func l32(p *sim.Proc, s *mm.RWSem) { l33(p, s) }

func l33(p *sim.Proc, s *mm.RWSem) { l34(p, s) }

func l34(p *sim.Proc, s *mm.RWSem) { l35(p, s) }

func l35(p *sim.Proc, s *mm.RWSem) { l36(p, s) }

func l36(p *sim.Proc, s *mm.RWSem) { l37(p, s) }

func l37(p *sim.Proc, s *mm.RWSem) { l38(p, s) }

func l38(p *sim.Proc, s *mm.RWSem) { l39(p, s) }

func l39(p *sim.Proc, s *mm.RWSem) { l40(p, s) }

func l40(p *sim.Proc, s *mm.RWSem) { l41(p, s) }

func l41(p *sim.Proc, s *mm.RWSem) { l42(p, s) }

func l42(p *sim.Proc, s *mm.RWSem) { l43(p, s) }

func l43(p *sim.Proc, s *mm.RWSem) { l44(p, s) }

func l44(p *sim.Proc, s *mm.RWSem) { l45(p, s) }

func l45(p *sim.Proc, s *mm.RWSem) { l46(p, s) }

func l46(p *sim.Proc, s *mm.RWSem) { l47(p, s) }

func l47(p *sim.Proc, s *mm.RWSem) { l48(p, s) }

func l48(p *sim.Proc, s *mm.RWSem) { l49(p, s) }

func l49(p *sim.Proc, s *mm.RWSem) { l50(p, s) }

func l50(p *sim.Proc, s *mm.RWSem) { l51(p, s) }

func l51(p *sim.Proc, s *mm.RWSem) { s.DownWrite(p) }
