package sweep

import (
	"math"
	"testing"
)

// TestCellsCountsWithoutEnumerating pins Spec.Cells to the length of
// Configs, including the migration axis collapsing at K=1, and its
// saturation when the product overflows int.
func TestCellsCountsWithoutEnumerating(t *testing.T) {
	for _, mut := range []func(*Spec){
		func(*Spec) {},
		func(s *Spec) { s.GPUs = []int{1, 2, 4} },
		func(s *Spec) { s.GPUs = []int{1, 2}; s.Migration = []string{"first-touch", "access-counter"} },
		func(s *Spec) { s.GPUs = []int{1}; s.Migration = []string{"first-touch", "access-counter"} },
		func(s *Spec) { s.Batch = []int{64, 128, 256}; s.VABlock = []int64{1 << 20, 2 << 20} },
	} {
		s := smallSpec()
		mut(s)
		cs, err := s.Configs()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Cells(); got != len(cs) {
			t.Errorf("gpus=%v migration=%v: Cells() = %d, Configs() gave %d", s.GPUs, s.Migration, got, len(cs))
		}
	}
	s := smallSpec()
	s.Batch = nil
	if got := s.Cells(); got != 0 {
		t.Errorf("empty batch list: Cells() = %d, want 0", got)
	}
	long := make([]int, 1<<16)
	for i := range long {
		long[i] = 2
	}
	s = smallSpec()
	s.GPUs, s.Migration = long, make([]string, 1<<16)
	s.Batch = long
	s.Footprints = make([]float64, 1<<16)
	s.VABlock = make([]int64, 1<<16)
	if got := s.Cells(); got != math.MaxInt {
		t.Errorf("overflowing product: Cells() = %d, want math.MaxInt", got)
	}
	if _, err := s.Configs(); err == nil {
		t.Error("Configs accepted a cross product that overflows int")
	}
}
