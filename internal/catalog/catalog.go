// Package catalog implements a control plane for the simulated data lake
// in the mold of LinkedIn's OpenHouse: a declarative catalog of databases
// (tenant namespaces with HDFS object quotas) and log-structured tables,
// plus data services (snapshot retention) that reconcile observed and
// desired state.
//
// AutoComp interfaces with the lake exclusively through this catalog,
// matching the paper's deployment where compaction is an OpenHouse data
// service (§2, §5, Figure 5).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Errors returned by catalog operations.
var (
	ErrDatabaseExists   = errors.New("catalog: database already exists")
	ErrDatabaseNotFound = errors.New("catalog: database not found")
	ErrTableExists      = errors.New("catalog: table already exists")
	ErrTableNotFound    = errors.New("catalog: table not found")
)

// TablePolicies is the declarative per-table maintenance state the control
// plane reconciles.
type TablePolicies struct {
	// RetainSnapshots is how many snapshots retention keeps (min 1).
	RetainSnapshots int
	// CheckpointEveryVersions is how many commits may accumulate before
	// a metadata checkpoint is due; 0 disables checkpoint scheduling for
	// the table.
	CheckpointEveryVersions int64
	// Intermediate marks scratch tables that filters may exclude from
	// compaction (§4.1's usage-aware filtering).
	Intermediate bool

	// TriggerEveryCommits is the incremental observation plane's
	// commit-count trigger for this table: how many commits accumulate
	// before the table enters the dirty set for re-observation. 0 falls
	// back to the feed's default (every commit preserves full-scan
	// decision parity; higher values observe lazily).
	TriggerEveryCommits int64
	// TriggerBytesWritten, when positive, also fires the trigger once
	// this many bytes accumulate since the last observation.
	TriggerBytesWritten int64
}

// DefaultPolicies returns the control plane's default table policies.
func DefaultPolicies() TablePolicies {
	return TablePolicies{RetainSnapshots: 20, CheckpointEveryVersions: 100}
}

// Overlay returns p with o's set fields (positive values; Intermediate
// true) overriding — the field-wise merge the layered policy resolution
// uses, most specific layer last.
func (p TablePolicies) Overlay(o TablePolicies) TablePolicies {
	if o.RetainSnapshots > 0 {
		p.RetainSnapshots = o.RetainSnapshots
	}
	if o.CheckpointEveryVersions > 0 {
		p.CheckpointEveryVersions = o.CheckpointEveryVersions
	}
	if o.Intermediate {
		p.Intermediate = true
	}
	if o.TriggerEveryCommits > 0 {
		p.TriggerEveryCommits = o.TriggerEveryCommits
	}
	if o.TriggerBytesWritten > 0 {
		p.TriggerBytesWritten = o.TriggerBytesWritten
	}
	return p
}

// Database is a tenant namespace holding tables under one storage quota.
type Database struct {
	Name   string
	Tenant string
}

// entry pairs a table with its policies.
type entry struct {
	table    *lst.Table
	policies TablePolicies
}

// ControlPlane is the catalog plus data services.
type ControlPlane struct {
	mu    sync.Mutex
	fs    *storage.NameNode
	clock *sim.Clock
	dbs   map[string]*Database
	// tables is keyed by database name, then table name.
	tables map[string]map[string]*entry
	// dbPolicies holds database-level policy overrides: a layer between
	// fleet-wide defaults and per-table policies that the policy plane's
	// layered resolution consults.
	dbPolicies map[string]TablePolicies
	// commitHook, when set, is installed on every table (existing and
	// future) so the lake publishes one changefeed.
	commitHook lst.CommitHook
	// dropHook, when set, is notified after DropTable removes a table,
	// so changefeed consumers forget it (dirty state, cached stats,
	// retained candidates).
	dropHook func(db, name string)
	// log, when attached (AttachLog/Restore), is the durable commit-log
	// store: table actions stream to per-table _delta_log directories and
	// catalog mutations rewrite the manifest.
	log *lstlog.Store
}

// New returns a control plane over the given storage, driven by clock.
func New(fs *storage.NameNode, clock *sim.Clock) *ControlPlane {
	return &ControlPlane{
		fs:         fs,
		clock:      clock,
		dbs:        make(map[string]*Database),
		tables:     make(map[string]map[string]*entry),
		dbPolicies: make(map[string]TablePolicies),
	}
}

// FS returns the underlying storage layer.
func (cp *ControlPlane) FS() *storage.NameNode { return cp.fs }

// Clock returns the control plane's clock.
func (cp *ControlPlane) Clock() *sim.Clock { return cp.clock }

// CreateDatabase registers a database (tenant namespace). quotaObjects, if
// positive, installs an HDFS namespace quota on the database.
func (cp *ControlPlane) CreateDatabase(name, tenant string, quotaObjects int64) (*Database, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, ok := cp.dbs[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseExists, name)
	}
	db := &Database{Name: name, Tenant: tenant}
	cp.dbs[name] = db
	cp.tables[name] = make(map[string]*entry)
	if quotaObjects > 0 {
		cp.fs.SetQuota(name, quotaObjects)
	}
	if err := cp.persistLocked(); err != nil {
		return nil, err
	}
	return db, nil
}

// Databases returns registered database names, sorted.
func (cp *ControlPlane) Databases() []string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]string, 0, len(cp.dbs))
	for name := range cp.dbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CreateTable creates a table in db with cfg (cfg.Database is overwritten
// with db) and no explicitly set policies: every field is left zero, so
// the table inherits database-level overrides and consumer defaults
// through the layered resolution (EffectivePolicies) instead of pinning
// a frozen copy of DefaultPolicies that would mask later database-wide
// changes.
func (cp *ControlPlane) CreateTable(db string, cfg lst.TableConfig) (*lst.Table, error) {
	return cp.CreateTableWithPolicies(db, cfg, TablePolicies{})
}

// CreateTableWithPolicies creates a table with explicit policies.
func (cp *ControlPlane) CreateTableWithPolicies(db string, cfg lst.TableConfig, pol TablePolicies) (*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	if _, ok := ts[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableExists, db, cfg.Name)
	}
	cfg.Database = db
	t, err := lst.NewTable(cfg, cp.fs, cp.clock)
	if err != nil {
		return nil, err
	}
	if cp.commitHook != nil {
		t.SetCommitHook(cp.commitHook)
	}
	ts[cfg.Name] = &entry{table: t, policies: pol}
	if cp.log != nil {
		// Any on-disk directory for a table the manifest does not name is
		// debris from a create that crashed before its manifest write;
		// clear it so the new table starts a fresh log.
		if err := cp.log.RemoveTable(db, cfg.Name); err != nil {
			return nil, err
		}
		// Durability order matters: the table's log (create action) lands
		// before the manifest names the table. A crash in between leaves a
		// directory the manifest does not reference — Restore ignores it,
		// which is the "catalog pointer never moved" recovery contract.
		if err := cp.attachTableLogLocked(db, cfg.Name, t); err != nil {
			return nil, err
		}
		if err := cp.saveManifestLocked(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SetCommitHook installs h on every table in the lake — existing tables
// immediately, future tables at creation — so one changefeed observes
// all commits. The changefeed package's AttachCatalog wires a commit bus
// here.
func (cp *ControlPlane) SetCommitHook(h lst.CommitHook) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.commitHook = h
	for _, ts := range cp.tables {
		for _, e := range ts {
			e.table.SetCommitHook(h)
		}
	}
}

// Table looks up a table.
func (cp *ControlPlane) Table(db, name string) (*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	return e.table, nil
}

// Policies returns the policies for a table.
func (cp *ControlPlane) Policies(db, name string) (TablePolicies, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	return e.policies, nil
}

// SetDatabasePolicies installs database-level policy overrides: fields
// set here apply to every table of the database unless the table's own
// policies set them (Overlay semantics).
func (cp *ControlPlane) SetDatabasePolicies(db string, pol TablePolicies) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, ok := cp.dbs[db]; !ok {
		return fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	cp.dbPolicies[db] = pol
	return cp.persistLocked()
}

// DatabasePolicies returns the database-level policy overrides, when
// any were installed.
func (cp *ControlPlane) DatabasePolicies(db string) (TablePolicies, bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	pol, ok := cp.dbPolicies[db]
	return pol, ok
}

// EffectivePolicies resolves the policies in force for a table:
// database-level overrides first, then the table's own set fields on
// top (most specific wins field-wise). Only operator-set fields appear;
// fields no layer sets stay zero, and consumers apply their own
// defaults (the policy spec layers beneath, through policy.Source;
// DefaultPolicies for retention).
func (cp *ControlPlane) EffectivePolicies(db, name string) (TablePolicies, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	return cp.dbPolicies[db].Overlay(e.policies), nil
}

// SetPolicies replaces the policies for a table.
func (cp *ControlPlane) SetPolicies(db, name string, pol TablePolicies) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	e.policies = pol
	return cp.persistLocked()
}

// Tables returns the tables of one database sorted by name.
func (cp *ControlPlane) Tables(db string) ([]*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	out := make([]*lst.Table, 0, len(ts))
	for _, e := range ts {
		out = append(out, e.table)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// AllTables returns every table in the lake, sorted by database then name,
// giving the deterministic iteration order AutoComp's candidate generation
// relies on (NFR2).
func (cp *ControlPlane) AllTables() []*lst.Table {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var out []*lst.Table
	for _, ts := range cp.tables {
		for _, e := range ts {
			out = append(out, e.table)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// TableCount returns the number of onboarded tables.
func (cp *ControlPlane) TableCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := 0
	for _, ts := range cp.tables {
		n += len(ts)
	}
	return n
}

// DropTable unregisters a table and deletes all of its storage objects.
// Once the table is unregistered its commit hook is detached (a stale
// handle can no longer publish) and the drop hook, when set, is
// notified — even when a storage deletion fails, so the changefeed
// never keeps a phantom table the catalog no longer knows.
func (cp *ControlPlane) DropTable(db, name string) error {
	dropped, err := cp.dropTable(db, name)
	if dropped == nil {
		return err
	}
	dropped.SetCommitHook(nil)
	dropped.SetActionSink(nil)
	cp.mu.Lock()
	if cp.log != nil {
		if rmErr := cp.log.RemoveTable(db, name); rmErr != nil && err == nil {
			err = rmErr
		}
		if pErr := cp.saveManifestLocked(); pErr != nil && err == nil {
			err = pErr
		}
	}
	hook := cp.dropHook
	cp.mu.Unlock()
	if hook != nil {
		hook(db, name)
	}
	return err
}

// dropTable is the locked body of DropTable. A non-nil table means the
// table was unregistered, even if deleting its storage objects failed
// (the error is returned alongside).
func (cp *ControlPlane) dropTable(db, name string) (*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	delete(ts, name)
	prefix := fmt.Sprintf("/%s/%s/", db, name)
	var firstErr error
	for _, obj := range cp.fs.List(prefix) {
		if err := cp.fs.Delete(obj.Path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return e.table, firstErr
}

// SetDropHook installs h to be notified after every DropTable. The
// changefeed package's AttachCatalog publishes Dropped events here.
func (cp *ControlPlane) SetDropHook(h func(db, name string)) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.dropHook = h
}

// QuotaUtilization returns Used/Total for a database's namespace quota, or
// 0 when no quota is installed. Feeds the paper's quota-adaptive MOOP
// weight w1 = 0.5·(1 + Used/Total) (§7).
func (cp *ControlPlane) QuotaUtilization(db string) float64 {
	q, ok := cp.fs.QuotaFor(db)
	if !ok {
		return 0
	}
	return q.Utilization()
}

// RunRetention is the data service that reconciles snapshot retention
// policies across the lake; it returns the number of storage objects
// reclaimed. Retention targets resolve through the policy layers:
// DefaultPolicies, database-level overrides, then the table's own set
// fields.
func (cp *ControlPlane) RunRetention() (int, error) {
	cp.mu.Lock()
	type job struct {
		table *lst.Table
		keep  int
	}
	jobs := make([]job, 0, cp.TableCountLocked())
	for db, ts := range cp.tables {
		for _, e := range ts {
			pol := DefaultPolicies().Overlay(cp.dbPolicies[db]).Overlay(e.policies)
			jobs = append(jobs, job{table: e.table, keep: pol.RetainSnapshots})
		}
	}
	cp.mu.Unlock()

	total := 0
	for _, j := range jobs {
		if j.keep < 1 {
			j.keep = 1
		}
		n, err := j.table.ExpireSnapshots(j.keep)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// TableCountLocked returns the table count; caller must hold cp.mu.
func (cp *ControlPlane) TableCountLocked() int {
	n := 0
	for _, ts := range cp.tables {
		n += len(ts)
	}
	return n
}

// TableAge returns how long ago the table was created.
func (cp *ControlPlane) TableAge(t *lst.Table) time.Duration {
	return cp.clock.Now() - t.Created()
}
