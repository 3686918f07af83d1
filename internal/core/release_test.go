package core

import (
	"runtime"
	"testing"
	"weak"

	"uvmsim/internal/gpusim"
	"uvmsim/internal/workloads"
)

// TestRunUVMReleasesKernel pins that a finished kernel is garbage once
// its caller drops it: the GPU forgets the kernel when its last block
// retires and pooled warp runs forget their programs, so an experiment
// holding finished systems does not hold every cell's access lists.
func TestRunUVMReleasesKernel(t *testing.T) {
	for _, gpus := range []int{1, 2} {
		s := newSys(t, 32<<20, func(c *Config) { c.GPUs = gpus })
		k, err := workloads.PageTouchRandom(s, 4<<20, workloads.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		prog, ok := k.Blocks[0].Warps[0].(gpusim.SliceProgram)
		if !ok {
			t.Fatalf("random kernel warp is %T, want a SliceProgram", k.Blocks[0].Warps[0])
		}
		wk, wp := weak.Make(k), weak.Make(&prog[0])
		prog = nil
		if _, err := s.RunUVM(k); err != nil {
			t.Fatal(err)
		}
		k = nil
		runtime.GC()
		runtime.GC()
		if wk.Value() != nil {
			t.Errorf("K=%d: kernel still reachable after RunUVM returned and the caller dropped it", gpus)
		}
		if wp.Value() != nil {
			t.Errorf("K=%d: warp program still reachable after RunUVM returned and the caller dropped it", gpus)
		}
		runtime.KeepAlive(s)
	}
}
