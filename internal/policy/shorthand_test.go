package policy

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
)

// The CoreLadder shorthand and N explicit copies in CoreLadders are the
// same machine: every policy returns identical decisions for the two
// forms, epoch after epoch (each epoch's decision is fed back as the next
// one's operating point and measured power, so Freq-Par's quota state and
// the FastCap family's warm start are exercised too).
func TestShorthandAndExplicitLaddersAreTheSameMachine(t *testing.T) {
	const epochs = 6
	policies := func(s *Snapshot) []Policy {
		half := make([]int, s.N()/2)
		groupPeak := 0.0
		for i := range half {
			half[i] = i
			groupPeak += s.Power.Cores[i].Peak()
		}
		pols := []Policy{
			NewFastCap(), &FastCap{Guard: true, Exhaustive: true}, NewCPUOnly(),
			NewGroupedFastCap([]core.BudgetGroup{{Cores: half, Budget: 0.5 * groupPeak}}),
			NewEqlPwr(), NewEqlFreq(), NewFreqPar(), NewGreedy(),
		}
		if s.N() <= 4 {
			pols = append(pols, NewMaxBIPS())
		}
		return pols
	}
	feedBack := func(s *Snapshot, d Decision) {
		for i, st := range d.CoreSteps {
			s.MeasuredCoreW[i] = s.Power.Cores[i].At(s.ladder(i).NormFreq(st))
		}
		s.CurCoreSteps = append(s.CurCoreSteps[:0], d.CoreSteps...)
		s.CurMemStep = d.MemStep
		s.MeasuredMemW = s.Power.Mem.At(s.MemLadder.NormFreq(d.MemStep))
	}
	for _, n := range []int{4, 16, 64} {
		for _, frac := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			short, explicit := policies(snap(n, frac)), policies(snap(n, frac))
			for k := range short {
				a, b := snap(n, frac), snap(n, frac)
				b.CoreLadders = make([]*dvfs.Ladder, n)
				for i := range b.CoreLadders {
					b.CoreLadders[i] = b.CoreLadder
				}
				b.CoreLadder = nil
				label := fmt.Sprintf("%s, %d cores, budget %.0f%%", short[k].Name(), n, frac*100)
				for epoch := 0; epoch < epochs; epoch++ {
					da, err := short[k].Decide(a)
					if err != nil {
						t.Fatalf("%s: shorthand: %v", label, err)
					}
					db, err := explicit[k].Decide(b)
					if err != nil {
						t.Fatalf("%s: explicit: %v", label, err)
					}
					if !reflect.DeepEqual(da, db) {
						t.Fatalf("%s, epoch %d: shorthand decided %+v, explicit ladders %+v", label, epoch, da, db)
					}
					feedBack(a, da)
					feedBack(b, db)
				}
			}
		}
	}
}
