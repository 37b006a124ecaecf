package autotune

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"autocomp/internal/policy"
)

// FuzzParseSpace feeds arbitrary bytes to the tuning-space decoder,
// seeded with the shipped space. ParseSpace must never panic, a decoded
// space must survive Marshal→ParseSpace→Marshal byte-for-byte, and a
// space that validates against the default spec must warm-start from
// it: Decode(base, Encode(base)) succeeds and compiles.
func FuzzParseSpace(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", "examples", "tuning", "space.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// An integer range past int64 once validated and then wrapped on
	// decode.
	f.Add([]byte(`{"dimensions":[{"field":"execution.workers","min":1e19,"max":1e20}]}`))
	base := policy.DefaultSpec()
	env := evalEnv()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpace(data)
		if err != nil {
			return
		}
		first, err := s.Marshal()
		if err != nil {
			t.Fatalf("marshal decoded space: %v", err)
		}
		again, err := ParseSpace(first)
		if err != nil {
			t.Fatalf("re-parse marshalled space: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal not stable:\n%s\nvs\n%s", first, second)
		}

		if s.Validate(base) != nil {
			return
		}
		start, err := s.Encode(base)
		if err != nil {
			t.Fatalf("encode base under a valid space: %v\n%s", err, first)
		}
		spec, err := s.Decode(base, start)
		if err != nil {
			t.Fatalf("decode warm start: %v\n%s", err, first)
		}
		if err := policy.Validate(spec, env); err != nil {
			t.Fatalf("warm-start spec does not compile: %v\n%s", err, first)
		}
	})
}
