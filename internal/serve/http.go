package serve

import (
	"encoding/json"
	"io"
	"net/http"
)

// handler builds the route table.
//
//	POST /v1/jobs                submit a JobSpec; 200 done/cached, 202 admitted,
//	                             400 invalid, 429 rate-limited (Retry-After),
//	                             503 queue full or shutting down (Retry-After)
//	GET  /v1/jobs/{key}          job status
//	GET  /v1/jobs/{key}/rows     stream result rows as NDJSON, in point order,
//	                             as they land (blocks until the job settles)
//	GET  /v1/artifacts/{key}     the completed artifact from the cache
//	GET  /statusz                counters: jobs, queue, points, cache hit/miss
//	GET  /healthz                liveness
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{key}/rows", s.handleRows)
	mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(v)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// Strict decoding: an unknown field (a misspelling, a spec the kind
	// does not define) is an error, never silently dropped from the job
	// identity.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job JSON: "+err.Error())
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad job JSON: data after the job object")
		return
	}
	if err := spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, code := s.submit(spec)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
		httpError(w, code, st.Error)
		return
	}
	writeJSON(w, code, st)
}

func (s *Server) lookup(key string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[key]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusNotFound, "malformed job key")
		return
	}
	if jb := s.lookup(key); jb != nil {
		writeJSON(w, http.StatusOK, jb.status())
		return
	}
	// Not in this process's lifetime, but possibly a finished artifact
	// from an earlier one.
	if _, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, JobStatus{Key: key, State: stateDone, Cached: true})
		return
	}
	httpError(w, http.StatusNotFound, "no such job")
}

// handleRows streams the job's rows as NDJSON in point order. Rows are
// written as the fully populated prefix grows — never out of order, so
// a client sees exactly the bytes of the final artifact, incrementally.
// The handler parks between updates on the job's wakeup channel and the
// server stop channel; shutdown releases it with the prefix emitted so
// far.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusNotFound, "malformed job key")
		return
	}
	jb := s.lookup(key)
	if jb == nil {
		if art, ok := s.cache.Get(key); ok {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(art)
			return
		}
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	ch := jb.subscribe()
	defer jb.unsubscribe(ch)
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	sent := 0
	for {
		rows, state := jb.snapshotFrom(sent)
		for _, row := range rows {
			w.Write(row)
			w.Write([]byte{'\n'})
			sent++
		}
		if len(rows) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal(state) {
			return
		}
		select {
		case <-ch:
		case <-s.stop:
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusNotFound, "malformed artifact key")
		return
	}
	art, ok := s.cache.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no such artifact")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(art)
}

// Statusz is the wire form of GET /statusz.
type Statusz struct {
	Revision string         `json:"revision"`
	Jobs     map[string]int `json:"jobs"` // state -> count
	Queue    QueueStats     `json:"queue"`
	Points   PointStats     `json:"points"`
	Cache    CacheStats     `json:"cache"`
}

// QueueStats describes the admission queue.
type QueueStats struct {
	Depth     int   `json:"depth"`
	Occupancy int64 `json:"occupancy"`
}

// PointStats separates simulated work from restored work: Computed
// counts points that actually ran the engine, Resumed points restored
// from checkpoints. A fully cache-served repeat moves neither.
type PointStats struct {
	Computed int64 `json:"computed"`
	Resumed  int64 `json:"resumed"`
}

// CacheStats is the artifact cache hit/miss record.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := Statusz{
		Revision: s.revision,
		Jobs:     map[string]int{},
		Queue:    QueueStats{Depth: s.cfg.QueueDepth, Occupancy: s.queued.Load()},
		Points:   PointStats{Computed: s.computed.Load(), Resumed: s.resumedPoints.Load()},
	}
	st.Cache.Hits, st.Cache.Misses = s.cache.Stats()
	s.mu.Lock()
	for _, key := range s.keys {
		st.Jobs[s.jobs[key].status().State]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
