package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse feeds arbitrary bytes to the scenario decoder,
// seeded with the shipped scenarios. Parse and Validate must never
// panic, and a spec that validates must survive Marshal→Parse→Marshal
// byte-for-byte and validate again after the round trip.
func FuzzScenarioParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
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
		if s.Validate() != nil {
			return
		}
		first, err := s.Marshal()
		if err != nil {
			t.Fatalf("marshal valid spec: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-parse marshalled spec: %v\n%s", err, first)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-parsed spec no longer validates: %v\n%s", err, first)
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
