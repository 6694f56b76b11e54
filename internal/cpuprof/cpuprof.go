// Package cpuprof backs the commands' -cpuprofile flag: a runtime/pprof
// host CPU profile of the whole run, for `go tool pprof -top`. Profiling
// writes nothing to stdout, so a run's tables are the same with or without
// it.
package cpuprof

import (
	"os"
	"runtime/pprof"
)

// Start profiles the process into the file at path and returns the function
// that stops profiling and closes the file. An empty path profiles nothing
// and returns a no-op stop.
func Start(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
