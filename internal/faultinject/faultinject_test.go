package faultinject

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFSScriptedFaults(t *testing.T) {
	fs := NewFS(map[int64]Kind{2: Fail, 3: ShortWrite, 4: BitFlip, 5: Fail})
	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := []byte("0123456789abcdef")

	if n, err := f.Write(buf); err != nil || n != len(buf) { // op 1: clean
		t.Fatalf("clean write: n=%d err=%v", n, err)
	}
	if _, err := f.Write(buf); err == nil || !strings.Contains(err.Error(), "write failed") { // op 2: Fail
		t.Fatalf("scripted Fail: err=%v", err)
	}
	if n, err := f.Write(buf); err == nil || n != len(buf)/2 { // op 3: ShortWrite
		t.Fatalf("scripted ShortWrite: n=%d err=%v", n, err)
	}
	if n, err := f.Write(buf); err != nil || n != len(buf) { // op 4: BitFlip reports success
		t.Fatalf("scripted BitFlip: n=%d err=%v", n, err)
	}
	if err := f.Sync(); err == nil { // op 5: Fail on sync
		t.Fatal("scripted sync Fail succeeded")
	}
	if err := f.Sync(); err != nil { // op 6: clean
		t.Fatalf("clean sync: %v", err)
	}
	if got := fs.Ops(); got != 6 {
		t.Fatalf("Ops() = %d, want 6", got)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Clean(16) + short(8) + flipped(16) bytes reached the file.
	if want := 16 + 8 + 16; len(data) != want {
		t.Fatalf("file holds %d bytes, want %d", len(data), want)
	}
	flipped := data[24:]
	if flipped[len(flipped)/2] != buf[len(buf)/2]^0x10 {
		t.Fatal("BitFlip write did not corrupt the middle byte")
	}
	if string(data[:16]) != string(buf) {
		t.Fatal("clean write corrupted")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Fail: "fail", ShortWrite: "short-write", BitFlip: "bit-flip", Kind(9): "Kind(9)"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
