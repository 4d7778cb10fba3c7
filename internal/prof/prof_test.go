package prof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartCPU(t *testing.T) {
	stop, err := StartCPU("")
	if err != nil || stop() != nil {
		t.Fatalf("empty path: start %v", err)
	}
	if _, err := StartCPU(filepath.Join(t.TempDir(), "missing", "cpu.prof")); err == nil {
		t.Fatal("unwritable path accepted")
	}
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if stop, err = StartCPU(path); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// Even an idle profile carries the gzip'd protobuf header once stopped.
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}

func TestWriteAllocs(t *testing.T) {
	if err := WriteAllocs(""); err != nil {
		t.Fatalf("empty path: %v", err)
	}
	if err := WriteAllocs(filepath.Join(t.TempDir(), "missing", "mem.prof")); err == nil {
		t.Fatal("unwritable path accepted")
	}
	path := filepath.Join(t.TempDir(), "mem.prof")
	if err := WriteAllocs(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}
}
