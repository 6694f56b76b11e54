package cpuprof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := Start(path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty profile")
	}
}

func TestStartEmptyPathIsNoOp(t *testing.T) {
	stop, err := Start("")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
