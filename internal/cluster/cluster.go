// Package cluster simulates the compute clusters the paper runs on: a
// driver plus N executors with fixed memory, a byte-throughput job model
// with task waves and startup overhead, bounded job concurrency with
// queueing, and a per-application GBHr ledger.
//
// GBHr (gigabyte-hours of executor memory) is the paper's compute-cost
// unit: GBHr = memory per executor × executors × job duration in hours
// (§4.2, §6 "GBHrApp"). Production figures use TBHr = GBHr/1024 (§7).
package cluster

import (
	"sync"
	"time"

	"autocomp/internal/sim"
)

// Config describes one cluster. The paper's shapes: the query-processing
// cluster has 1 driver + 15 executors, the compaction cluster 1 + 3, each
// node an 8-core, 64 GB Azure Standard E8s v3 (§6).
type Config struct {
	Name                string
	Executors           int
	ExecutorCores       int
	MemoryPerExecutorGB float64

	// ScanBytesPerSec and WriteBytesPerSec are per-task-slot throughputs.
	ScanBytesPerSec  float64
	WriteBytesPerSec float64

	// PerFileOverhead is the fixed cost a task pays per file it touches
	// (footer decode, object store round-trip), the engine-side half of
	// the small-file tax.
	PerFileOverhead time.Duration

	// JobStartup is the fixed scheduling/startup overhead per job (FR1
	// notes the start-up cost of instantiating more compaction tasks).
	JobStartup time.Duration

	// MaxConcurrentJobs bounds in-flight jobs; excess jobs queue.
	// Zero means executors-many jobs.
	MaxConcurrentJobs int
}

// QueryClusterConfig mirrors the paper's 1+15-node query cluster.
func QueryClusterConfig() Config {
	return Config{
		Name:                "query",
		Executors:           15,
		ExecutorCores:       8,
		MemoryPerExecutorGB: 64,
		ScanBytesPerSec:     64 << 20,
		WriteBytesPerSec:    32 << 20,
		PerFileOverhead:     40 * time.Millisecond,
		JobStartup:          2 * time.Second,
		MaxConcurrentJobs:   20,
	}
}

// CompactionClusterConfig mirrors the paper's 1+3-node compaction cluster.
func CompactionClusterConfig() Config {
	return Config{
		Name:                "compaction",
		Executors:           3,
		ExecutorCores:       8,
		MemoryPerExecutorGB: 64,
		ScanBytesPerSec:     64 << 20,
		WriteBytesPerSec:    32 << 20,
		PerFileOverhead:     25 * time.Millisecond,
		JobStartup:          5 * time.Second,
		MaxConcurrentJobs:   10,
	}
}

// JobSpec describes the work one job performs.
type JobSpec struct {
	// App labels the application for the GBHr ledger; the paper treats
	// each triggered compaction operation as a distinct application.
	App string
	// ScanBytes and WriteBytes are the total bytes read and written.
	ScanBytes  int64
	WriteBytes int64
	// Files is the number of files touched (per-file overhead applies).
	Files int
	// Tasks is the job's parallelism (e.g. shuffle partitions); zero
	// defaults to one task per file, minimum 1.
	Tasks int
	// ExtraCompute adds fixed busy time (e.g. CPU-bound operators).
	ExtraCompute time.Duration
}

// JobRecord is the ledger entry for one completed job.
type JobRecord struct {
	App        string
	Start      time.Duration
	QueueDelay time.Duration
	Duration   time.Duration // execution time excluding queueing
	GBHr       float64
}

// End returns when the job finished (start + queue + duration).
func (r JobRecord) End() time.Duration { return r.Start + r.QueueDelay + r.Duration }

// Cluster simulates one compute cluster. Safe for concurrent use.
type Cluster struct {
	mu    sync.Mutex
	cfg   Config
	clock *sim.Clock

	slots   []time.Duration // per-slot busy-until times
	records []JobRecord
	gbhr    map[string]float64
}

// New returns a cluster driven by clock.
func New(cfg Config, clock *sim.Clock) *Cluster {
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	if cfg.ExecutorCores <= 0 {
		cfg.ExecutorCores = 1
	}
	if cfg.ScanBytesPerSec <= 0 {
		cfg.ScanBytesPerSec = 64 << 20
	}
	if cfg.WriteBytesPerSec <= 0 {
		cfg.WriteBytesPerSec = 32 << 20
	}
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = cfg.Executors
	}
	return &Cluster{
		cfg:   cfg,
		clock: clock,
		slots: make([]time.Duration, cfg.MaxConcurrentJobs),
		gbhr:  make(map[string]float64),
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// TaskSlots returns the number of parallel task slots
// (executors × cores).
func (c *Cluster) TaskSlots() int { return c.cfg.Executors * c.cfg.ExecutorCores }

// EstimateDuration returns the execution time of spec without running it.
// The model: startup + waves × per-task work, where a wave runs up to
// TaskSlots tasks in parallel.
func (c *Cluster) EstimateDuration(spec JobSpec) time.Duration {
	tasks := spec.Tasks
	if tasks <= 0 {
		tasks = spec.Files
	}
	if tasks <= 0 {
		tasks = 1
	}
	slots := c.TaskSlots()
	waves := (tasks + slots - 1) / slots

	perTaskSecs := float64(spec.ScanBytes)/float64(tasks)/c.cfg.ScanBytesPerSec +
		float64(spec.WriteBytes)/float64(tasks)/c.cfg.WriteBytesPerSec
	perTask := time.Duration(perTaskSecs * float64(time.Second))
	if spec.Files > 0 {
		perTask += time.Duration(float64(spec.Files) / float64(tasks) * float64(c.cfg.PerFileOverhead))
	}
	d := c.cfg.JobStartup + time.Duration(waves)*perTask + spec.ExtraCompute
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// ExecutorMemoryGB returns the memory allocated to a job's executors,
// the ExecutorMemoryGB term of the §4.2 cost estimator.
func (c Config) ExecutorMemoryGB() float64 {
	return c.MemoryPerExecutorGB * float64(c.Executors)
}

// RewriteBytesPerHour returns the steady-state rewrite throughput of all
// task slots (read+write amortized), the RewriteBytesPerHour term of the
// §4.2 cost estimator. Real jobs run slower than this ideal (startup,
// per-file overhead, wave rounding), which is exactly the §7 cost
// underestimation.
func (c Config) RewriteBytesPerHour() float64 {
	slots := float64(c.Executors * c.ExecutorCores)
	perSlot := 1 / (1/c.ScanBytesPerSec + 1/c.WriteBytesPerSec)
	return perSlot * slots * 3600
}

// GBHrFor returns the compute cost of running spec for the estimated
// duration: ExecutorMemoryGB() × hours.
func (c *Cluster) GBHrFor(d time.Duration) float64 {
	return c.cfg.ExecutorMemoryGB() * d.Hours()
}

// Submit runs spec starting at the current virtual time, queueing behind
// earlier jobs when all job slots are busy. It records and returns the
// ledger entry. Submit does not advance the cluster's clock; simulated
// callers decide whether to block on r.End().
func (c *Cluster) Submit(spec JobSpec) JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()

	// Pick the slot that frees first.
	best := 0
	for i, busy := range c.slots {
		if busy < c.slots[best] {
			best = i
		}
	}
	queue := time.Duration(0)
	if c.slots[best] > now {
		queue = c.slots[best] - now
	}
	dur := c.EstimateDuration(spec)
	rec := JobRecord{
		App:        spec.App,
		Start:      now,
		QueueDelay: queue,
		Duration:   dur,
		GBHr:       c.GBHrFor(dur),
	}
	c.slots[best] = rec.End()
	c.records = append(c.records, rec)
	c.gbhr[spec.App] += rec.GBHr
	return rec
}

// GBHr returns the cumulative GBHr charged to app.
func (c *Cluster) GBHr(app string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gbhr[app]
}

// TotalGBHr returns the cumulative GBHr across all applications.
func (c *Cluster) TotalGBHr() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t float64
	for _, v := range c.gbhr {
		t += v
	}
	return t
}

// TotalTBHr returns TotalGBHr expressed in terabyte-hours.
func (c *Cluster) TotalTBHr() float64 { return c.TotalGBHr() / 1024 }

// Records returns a copy of the job ledger.
func (c *Cluster) Records() []JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobRecord, len(c.records))
	copy(out, c.records)
	return out
}

// RecordsSince returns ledger entries that started at or after t.
func (c *Cluster) RecordsSince(t time.Duration) []JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []JobRecord
	for _, r := range c.records {
		if r.Start >= t {
			out = append(out, r)
		}
	}
	return out
}

// JobGBHrs returns the per-job GBHr values for apps whose name has the
// given prefix (e.g. every "compaction/" application, which the paper
// aggregates as GBHrApp in Figure 7).
func (c *Cluster) JobGBHrs(appPrefix string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, r := range c.records {
		if hasPrefix(r.App, appPrefix) {
			out = append(out, r.GBHr)
		}
	}
	return out
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Reset clears the ledger (slots are left as-is).
func (c *Cluster) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = nil
	c.gbhr = make(map[string]float64)
}
