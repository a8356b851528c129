package profile

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Importing the package turns the runtime's heap sampling off, and only a
// heap profile asked of Start turns it on again.
func TestHeapSamplingOffUnlessAsked(t *testing.T) {
	if runtime.MemProfileRate != 0 {
		t.Fatalf("MemProfileRate = %d after init, want 0", runtime.MemProfileRate)
	}
	dir := t.TempDir()
	stop, err := Start(filepath.Join(dir, "cpu.prof"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != 0 {
		t.Fatalf("MemProfileRate = %d with a CPU profile alone, want 0", runtime.MemProfileRate)
	}
	t.Cleanup(func() { runtime.MemProfileRate = 0 })
	mem := filepath.Join(dir, "mem.prof")
	if stop, err = Start("", mem); err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != heapSampling || heapSampling == 0 {
		t.Fatalf("MemProfileRate = %d with a heap profile, want the start-up rate %d", runtime.MemProfileRate, heapSampling)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile %s: %v, %v", mem, fi, err)
	}
}
