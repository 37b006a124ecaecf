package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"autocomp/internal/telemetry"
)

// Server timeouts. There is deliberately no write timeout:
// /debug/pprof/profile?seconds=N and the run event stream legitimately
// write for as long as the client asked.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so slow or stalled clients cannot pin connections.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections left idle this long.
	idleTimeout = 2 * time.Minute
)

// statusState is the daemon state /statusz serves. The run loop updates
// it under the mutex once per cycle; HTTP handlers read it concurrently.
type statusState struct {
	mu          sync.Mutex
	policy      string
	policyPath  string
	day         int
	daysPlanned int
	done        bool
}

func (st *statusState) update(policy string, day int, done bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.policy = policy
	st.day = day
	st.done = done
}

// finish marks the run done without disturbing the policy name the
// last cycle reported (it may have hot-reloaded mid-run).
func (st *statusState) finish(day int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.day = day
	st.done = true
}

// StatusSnapshot is the /statusz payload: daemon identity plus the
// decision-trace view of the fleet, dirty set, and scheduler — the same
// CycleEvents the log lines render, so the three views cannot drift.
type StatusSnapshot struct {
	Policy         string                 `json:"policy"`
	PolicyPath     string                 `json:"policy_path,omitempty"`
	Day            int                    `json:"day"`
	DaysPlanned    int                    `json:"days_planned"`
	Done           bool                   `json:"done"`
	Cycles         int64                  `json:"cycles"`
	MetricFamilies int                    `json:"metric_families"`
	LastCycle      *telemetry.CycleEvent  `json:"last_cycle,omitempty"`
	RecentCycles   []telemetry.CycleEvent `json:"recent_cycles,omitempty"`
}

func (st *statusState) snapshot() StatusSnapshot {
	st.mu.Lock()
	snap := StatusSnapshot{
		Policy:      st.policy,
		PolicyPath:  st.policyPath,
		Day:         st.day,
		DaysPlanned: st.daysPlanned,
		Done:        st.done,
	}
	st.mu.Unlock()
	tr := telemetry.DefaultTracer()
	snap.Cycles = tr.Seq()
	snap.MetricFamilies = telemetry.Default().FamilyCount()
	if ev, ok := tr.Last(); ok {
		snap.LastCycle = &ev
	}
	snap.RecentCycles = tr.Recent(8)
	return snap
}

// httpServer pairs the daemon's http.Server with its bound address
// (useful with ":0") so main can announce it and shut it down
// gracefully.
type httpServer struct {
	srv  *http.Server
	addr string
}

// serveTelemetry binds listen and serves /metrics (Prometheus text
// format), /statusz (JSON daemon snapshot), /healthz, the pprof suite
// under /debug/pprof/, and any extra routes register mounts (the
// management API). It serves until srv.Shutdown is called.
func serveTelemetry(listen string, st *statusState, register func(*http.ServeMux)) (*httpServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st.snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if register != nil {
		register(mux)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return &httpServer{srv: srv, addr: ln.Addr().String()}, nil
}
