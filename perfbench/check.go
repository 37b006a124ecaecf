package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// buildID identifies the running benchmark binary, which embeds the
// program it measures: fingerprints recorded by one build are compared
// only with later runs of the same build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// checkAcrossRuns compares a run's per-step fingerprints with those an
// earlier run of the same build, workload and seed recorded, then
// records the union for later runs. Steps are keyed by index (a
// simulated day, or a tune repetition).
func checkAcrossRuns(env *runEnv, workload string, fps map[int]string) error {
	id, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(env.build, "perfbench", "fingerprints", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, env.seed))
	known := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &known); err != nil {
			return fmt.Errorf("fingerprint record %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var mismatched []int
	for step, fp := range fps {
		key := strconv.Itoa(step)
		if old, ok := known[key]; ok && old != fp {
			mismatched = append(mismatched, step)
		}
		known[key] = fp
	}
	if len(mismatched) > 0 {
		sort.Ints(mismatched)
		return fmt.Errorf("fingerprints of steps %v differ from an earlier run of this build with seed %d", mismatched, env.seed)
	}
	b, err := json.Marshal(known)
	if err != nil {
		return err
	}
	tmp := path + fmt.Sprintf(".%d.tmp", os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sameFingerprints checks that two passes over one workload produced
// the same fingerprint for every step either of them ran.
func sameFingerprints(want, got map[int]string) error {
	var steps []int
	for s := range want {
		steps = append(steps, s)
	}
	for s := range got {
		if _, ok := want[s]; !ok {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	for _, s := range steps {
		if want[s] != got[s] {
			return fmt.Errorf("step %d: untraced %q, traced %q", s, want[s], got[s])
		}
	}
	return nil
}
