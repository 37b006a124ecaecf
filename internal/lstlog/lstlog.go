// Package lstlog is the durable commit-log storage backend for
// internal/lst, in the style of delta-rs's _delta_log: every committed
// table version appends one JSON action file under the table's
// _delta_log/ directory, metadata checkpoints additionally emit a
// NNNN.NNNN.compacted.json artifact embedding the full table state, and
// OpenTable reconstructs a byte-identical table by replaying the log —
// preferring the newest parseable compacted artifact, then applying the
// version tail.
//
// Layout under a store root:
//
//	<root>/_catalog.json                          control-plane manifest
//	<root>/<db>/<table>/_delta_log/%020d.json     one action per LSN
//	<root>/<db>/<table>/_delta_log/%020d.%020d.compacted.json
//
// Action files are written atomically (temp file + rename); with fsync
// policy "always" every write is synced to disk before the rename and
// the directory is synced after it. A torn or missing tail file is the
// crash signature recovery expects: replay stops at the first gap and
// the table resumes from its last durable version. docs/storage.md
// documents the schema and the recovery algorithm.
package lstlog

import (
	"fmt"
	"os"
	"path/filepath"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Fsync policies.
const (
	// FsyncAlways syncs every action file and its directory.
	FsyncAlways = "always"
	// FsyncNone leaves durability to the OS page cache (the default).
	FsyncNone = "none"
)

// Config describes a store.
type Config struct {
	// Root is the directory holding the persisted lake.
	Root string
	// Fsync is "always" or "none" (empty means "none").
	Fsync string
}

// Store is a rooted on-disk lake: a directory of per-table commit logs
// plus the control-plane manifest.
type Store struct {
	root  string
	fsync bool
}

// Open validates cfg, creates the root directory if needed, and returns
// the store.
func Open(cfg Config) (*Store, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("lstlog: store requires a root directory")
	}
	switch cfg.Fsync {
	case "", FsyncNone:
	case FsyncAlways:
	default:
		return nil, fmt.Errorf("lstlog: unknown fsync policy %q (have: %q, %q)", cfg.Fsync, FsyncAlways, FsyncNone)
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("lstlog: %w", err)
	}
	return &Store{root: cfg.Root, fsync: cfg.Fsync == FsyncAlways}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// TableDir returns the directory of one table's persisted state.
func (s *Store) TableDir(db, name string) string {
	return filepath.Join(s.root, db, name)
}

// CreateTableLog creates (or reopens) the table's _delta_log directory
// and returns a log positioned to append after the existing entries.
func (s *Store) CreateTableLog(db, name string) (*TableLog, error) {
	dir := filepath.Join(s.TableDir(db, name), logDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lstlog: %w", err)
	}
	l := &TableLog{dir: dir, fsync: s.fsync}
	next, err := l.scanNext()
	if err != nil {
		return nil, err
	}
	l.next = next
	return l, nil
}

// OpenTable reconstructs one of the store's tables (see the package
// OpenTable), returning a log that appends under the store's fsync
// policy.
func (s *Store) OpenTable(db, name string, fs *storage.NameNode, clock *sim.Clock) (*lst.Table, *TableLog, error) {
	t, l, err := openTable(s.TableDir(db, name), fs, clock, true)
	if err != nil {
		return nil, nil, err
	}
	l.fsync = s.fsync
	return t, l, nil
}

// RemoveTable deletes the table's persisted directory (the durable
// counterpart of a catalog drop).
func (s *Store) RemoveTable(db, name string) error {
	return os.RemoveAll(s.TableDir(db, name))
}

// WriteRootFile atomically writes a file directly under the store root
// (the control plane keeps its manifest here). The write obeys the
// store's fsync policy.
func (s *Store) WriteRootFile(name string, data []byte) error {
	return writeFileAtomic(filepath.Join(s.root, name), data, s.fsync)
}

// ReadRootFile reads a file under the store root.
func (s *Store) ReadRootFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.root, name))
}

// WriteSubFile atomically writes a file at a slash-relative path under
// the store root, creating parent directories. Hosts persist their own
// control state (e.g. tenant fleet snapshots) alongside the lake with
// it, under the store's fsync policy.
func (s *Store) WriteSubFile(rel string, data []byte) error {
	path := filepath.Join(s.root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("lstlog: %w", err)
	}
	return writeFileAtomic(path, data, s.fsync)
}

// ReadSubFile reads a slash-relative file under the store root.
func (s *Store) ReadSubFile(rel string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.root, filepath.FromSlash(rel)))
}

// writeFileAtomic writes data to path via a temp file and rename, so a
// crash mid-write never leaves a half-written file at path. With sync
// set, the file is fsynced before the rename and the directory after.
func writeFileAtomic(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		// The rename is durable only once the directory entry is synced.
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			d.Close()
			return err
		}
		return d.Close()
	}
	return nil
}
