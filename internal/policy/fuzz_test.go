package policy

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the spec decoder, seeded with the
// shipped policies. Parse and Validate must never panic, and a decoded
// spec must survive Marshal→Parse→Marshal byte-for-byte.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "policies", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		_ = Validate(s, StubEnv())
		first, err := s.Marshal()
		if err != nil {
			t.Fatalf("marshal decoded spec: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-parse marshalled spec: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal not stable:\n%s\nvs\n%s", first, second)
		}
	})
}
