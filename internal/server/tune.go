package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"autocomp/internal/autotune"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
)

// tuneJob is one asynchronous tune run hosted by the daemon. It mirrors
// the tenant.Run lifecycle: submitted → running → done/error, with a
// cursor-addressable event log (trial records keyed by trial number)
// that /events streams the same way /runs/{id}/events streams cycles.
type tuneJob struct {
	id      string
	started time.Time

	mu      sync.Mutex
	status  string // "running", "done", "error"
	errMsg  string
	records []autotune.TrialRecord
	result  *autotune.Result
	done    chan struct{}
}

// TuneJobInfo is the wire snapshot of a tune job.
type TuneJobInfo struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Trials  int    `json:"trials"`
	Started string `json:"started"`
	// Best is the best composite so far (zero until a valid trial).
	Best float64 `json:"best,omitempty"`
}

func (j *tuneJob) info() TuneJobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := TuneJobInfo{
		ID:      j.id,
		Status:  j.status,
		Error:   j.errMsg,
		Trials:  len(j.records),
		Started: j.started.UTC().Format(time.RFC3339),
	}
	if n := len(j.records); n > 0 {
		info.Best = j.records[n-1].Best
	}
	return info
}

// eventsAfter returns trial records with Trial > after.
func (j *tuneJob) eventsAfter(after int) []autotune.TrialRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, rec := range j.records {
		if rec.Trial > after {
			out := make([]autotune.TrialRecord, len(j.records)-i)
			copy(out, j.records[i:])
			return out
		}
	}
	return nil
}

// tuneRequest is the POST /api/tune body. Scenarios resolve by name
// from the daemon's scenarios directory, or arrive inline via "specs";
// both may be combined. The space is always inline.
type tuneRequest struct {
	// Space is the inline search-space definition (required).
	Space json.RawMessage `json:"space"`
	// Scenarios names shipped scenarios in the daemon's scenarios dir.
	Scenarios []string `json:"scenarios,omitempty"`
	// Specs carries inline scenario definitions.
	Specs []json.RawMessage `json:"specs,omitempty"`
	// Base is an inline policy spec to tune (omit for the default).
	Base json.RawMessage `json:"base,omitempty"`
	// Optimizer, Budget, and Seed parameterize the search (defaults:
	// cfo, 16, 1).
	Optimizer string `json:"optimizer,omitempty"`
	Budget    int    `json:"budget,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// registerTune mounts the tuning routes (called from Register).
func (s *Server) registerTune(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/tune", s.handleSubmitTune)
	mux.HandleFunc("GET /api/tune", s.handleListTunes)
	mux.HandleFunc("GET /api/tune/{tune}", s.withTune(s.handleTuneStatus))
	mux.HandleFunc("GET /api/tune/{tune}/events", s.withTune(s.handleTuneEvents))
	mux.HandleFunc("GET /api/tune/{tune}/result", s.withTune(s.handleTuneResult))
}

// withTune resolves the {tune} path segment.
func (s *Server) withTune(h func(http.ResponseWriter, *http.Request, *tuneJob)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("tune")
		s.tuneMu.Lock()
		job, ok := s.tunes[id]
		s.tuneMu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, "no tune job %q", id)
			return
		}
		h(w, r, job)
	}
}

// handleSubmitTune: POST /api/tune — validate the request synchronously
// (bad spaces and unknown scenarios fail with 4xx before a job exists),
// then run the tune in the background and return 202 with the job id.
func (s *Server) handleSubmitTune(w http.ResponseWriter, r *http.Request) {
	var req tuneRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Space) == 0 {
		writeError(w, http.StatusBadRequest, `body needs "space" (inline search-space definition)`)
		return
	}
	space, err := autotune.ParseSpace(req.Space)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	var scenarios []*scenario.Spec
	for _, name := range req.Scenarios {
		sp, err := s.findScenario(name)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		scenarios = append(scenarios, sp)
	}
	for i, raw := range req.Specs {
		sp, err := scenario.Parse(raw)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "spec %d: %v", i, err)
			return
		}
		scenarios = append(scenarios, sp)
	}
	if len(scenarios) == 0 {
		writeError(w, http.StatusBadRequest, `body needs "scenarios" (names) or "specs" (inline)`)
		return
	}
	var base *policy.Spec
	if len(req.Base) > 0 {
		if base, err = policy.Parse(req.Base); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "base: %v", err)
			return
		}
	}
	if base == nil {
		base = policy.DefaultSpec()
	}
	if err := space.Validate(base); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	s.tuneMu.Lock()
	if s.tunes == nil {
		s.tunes = map[string]*tuneJob{}
	}
	s.tuneSeq++
	job := &tuneJob{
		id:      fmt.Sprintf("tune-%d", s.tuneSeq),
		started: time.Now(),
		status:  "running",
		done:    make(chan struct{}),
	}
	s.tunes[job.id] = job
	s.tuneOrder = append(s.tuneOrder, job.id)
	s.tuneMu.Unlock()

	cfg := autotune.Config{
		Space:     space,
		Base:      base,
		Scenarios: scenarios,
		Optimizer: req.Optimizer,
		Budget:    req.Budget,
		Seed:      req.Seed,
		Workers:   s.TuneWorkers,
		OnTrial: func(rec autotune.TrialRecord) {
			job.mu.Lock()
			job.records = append(job.records, rec)
			job.mu.Unlock()
		},
	}
	s.logf("mgmt: tune %s started (optimizer=%s budget=%d seed=%d scenarios=%d)",
		job.id, req.Optimizer, req.Budget, req.Seed, len(scenarios))
	go func() {
		res, err := autotune.Run(cfg)
		job.mu.Lock()
		if err != nil {
			job.status = "error"
			job.errMsg = err.Error()
		} else {
			job.status = "done"
			job.result = res
		}
		job.mu.Unlock()
		close(job.done)
		if err != nil {
			s.logf("mgmt: tune %s failed: %v", job.id, err)
		} else {
			s.logf("mgmt: tune %s done: best composite %.4f over %d trials",
				job.id, res.Report.BestComposite, res.Report.Trials)
		}
	}()
	writeJSON(w, http.StatusAccepted, job.info())
}

// handleListTunes: GET /api/tune → job snapshots in submission order.
func (s *Server) handleListTunes(w http.ResponseWriter, r *http.Request) {
	s.tuneMu.Lock()
	jobs := make([]*tuneJob, 0, len(s.tuneOrder))
	for _, id := range s.tuneOrder {
		jobs = append(jobs, s.tunes[id])
	}
	s.tuneMu.Unlock()
	out := make([]TuneJobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.info())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTuneStatus: GET /api/tune/{id}.
func (s *Server) handleTuneStatus(w http.ResponseWriter, r *http.Request, job *tuneJob) {
	writeJSON(w, http.StatusOK, job.info())
}

// tuneResult is the GET /api/tune/{id}/result body.
type tuneResult struct {
	ID     string          `json:"id"`
	Winner *policy.Spec    `json:"winner"`
	Report autotune.Report `json:"report"`
}

// handleTuneResult: GET /api/tune/{id}/result — winner spec + report
// once the job is done (409 while running, 500 body for failed jobs).
func (s *Server) handleTuneResult(w http.ResponseWriter, r *http.Request, job *tuneJob) {
	job.mu.Lock()
	status, errMsg, res := job.status, job.errMsg, job.result
	job.mu.Unlock()
	switch status {
	case "running":
		writeError(w, http.StatusConflict, "tune %s is running; result is available once done", job.id)
	case "error":
		writeError(w, http.StatusInternalServerError, "tune %s failed: %s", job.id, errMsg)
	default:
		writeJSON(w, http.StatusOK, tuneResult{ID: job.id, Winner: res.Winner, Report: res.Report})
	}
}

// handleTuneEvents: GET /api/tune/{id}/events — trial records as JSONL,
// streamed until the job reaches a terminal state (?after=N resumes a
// cursor; ?follow=0 polls). The same shape as /runs/{id}/events, with
// the trial number as the cursor.
func (s *Server) handleTuneEvents(w http.ResponseWriter, r *http.Request, job *tuneJob) {
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad after=%q: %v", v, err)
			return
		}
		after = n
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func() {
		for _, rec := range job.eventsAfter(after) {
			_ = enc.Encode(rec)
			after = rec.Trial
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	write()
	if !follow {
		return
	}
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-job.done:
			write()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			write()
		}
	}
}
