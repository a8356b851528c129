// Package profile writes the runtime/pprof profiles the programs take of
// themselves on request (monitord -cpuprofile, scenarios sweep -cpuprofile
// and -memprofile). Only those programs import it, so no other binary links
// runtime/pprof.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// heapSampling is the runtime's heap sampling rate at start-up. Linking
// runtime/pprof turns the sampling on for the whole process, and it keeps a
// record per distinct allocation stack, so the package turns it off as it
// initialises and Start turns it back on only for a heap profile.
var heapSampling = runtime.MemProfileRate

func init() { runtime.MemProfileRate = 0 }

// Start starts a CPU profile into the file cpu, unless cpu is
// empty, and returns the function that ends the profiling: it stops the
// CPU profile and, unless mem is empty, writes a heap profile (live, and
// allocated since Start) into the file mem after a collection. The
// files are runtime/pprof's, read with go tool pprof.
func Start(cpu, mem string) (stop func() error, err error) {
	if mem != "" {
		runtime.MemProfileRate = heapSampling
	}
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return nil, errors.Join(err, cpuFile.Close())
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if mem != "" {
			errs = append(errs, writeHeapProfile(mem))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the live heap as of the last collection is what the profile lists
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
