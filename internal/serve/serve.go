// Package serve is the campaign server: an HTTP/JSON front end over the
// deterministic experiment engines (runner.MapResume fanning
// experiments.SweepSpec points or chaos.Trial trials over a worker
// pool). Three properties carry over from the batch engines and are the
// whole point of the service:
//
//   - Determinism: a job's artifact is a pure function of (spec, engine
//     revision). Streaming emits only the fully populated row prefix, so
//     clients observe the same merge-in-order bytes the batch engine
//     returns, no matter how points were scheduled.
//   - Survivability: completed points append to a per-job checkpoint
//     (one unbuffered write per point); a restarted server re-admits the
//     job and skips finished points, and the final artifact is
//     byte-identical to an uninterrupted run.
//   - Content addressing: finished artifacts live in a cache keyed by
//     SHA-256(engine revision, canonical spec), where the revision is
//     the hash of the committed concurrency-certificate golden — a
//     repeat submission is served with zero simulator cycles, and an
//     engine change can never alias an old artifact.
//
// Shutdown is total: Close flips the stopping flag (in-flight points
// abort at the next point boundary, checkpoints intact), closes the
// stop channel (streaming handlers and the refill ticker return), shuts
// the HTTP listener down, closes the queue (workers drain and exit) and
// joins every goroutine on the server WaitGroup — the shape the goleak/
// chanwait certificate proves leak- and cycle-free.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis/codecert"
	"repro/internal/runner"
)

// Config sizes the server. Zero values select sensible defaults; only
// Addr is required.
type Config struct {
	Addr          string        // listen address ("127.0.0.1:0" for an ephemeral port)
	CheckpointDir string        // in-flight campaign checkpoints; "" disables resume
	CacheDir      string        // artifact cache directory; "" keeps artifacts in memory only
	QueueDepth    int           // admission bound on jobs queued behind the workers (default 16)
	JobWorkers    int           // campaigns run concurrently (default 1)
	PointWorkers  int           // runner pool width inside one campaign (0 = GOMAXPROCS)
	RateBurst     int           // token-bucket burst; 0 disables rate limiting
	RateRefill    int           // tokens restored per refill tick (default 1)
	RefillEvery   time.Duration // refill tick period (default 100ms)
	PointDelay    time.Duration // artificial per-point delay — a smoke-test hook; wall-clock only, never in a row
	Clock         Clock         // timed-wait source; nil selects the wall clock
}

// Server is one campaign service instance.
type Server struct {
	cfg      Config
	revision string

	ln  net.Listener
	srv *http.Server

	mu   sync.Mutex
	jobs map[string]*job
	keys []string // admission order

	queue   chan *job
	queued  atomic.Int64 // logical queue occupancy, gates admission
	limiter *Limiter
	cache   *Cache

	computed      atomic.Int64 // points actually simulated (never cache/checkpoint-served)
	resumedPoints atomic.Int64 // points restored from checkpoints at startup

	wg       sync.WaitGroup
	stop     chan struct{}
	stopping atomic.Bool
	closed   atomic.Bool
}

// errShutdown aborts in-flight points at the next point boundary when
// the server is closing; the job parks as "aborted" with its checkpoint
// intact.
var errShutdown = errors.New("serve: shutting down")

// New builds a server and re-admits every resumable checkpoint found in
// cfg.CheckpointDir. Call Start to begin listening.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.JobWorkers < 1 {
		cfg.JobWorkers = 1
	}
	if cfg.RateRefill < 1 {
		cfg.RateRefill = 1
	}
	if cfg.RefillEvery <= 0 {
		cfg.RefillEvery = 100 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{}
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		revision: codecert.Revision(),
		jobs:     map[string]*job{},
		limiter:  NewLimiter(cfg.RateBurst, cfg.RateRefill),
		cache:    cache,
		stop:     make(chan struct{}),
	}
	resumed, err := s.loadCheckpoints()
	if err != nil {
		return nil, err
	}
	// Physical capacity covers the admission bound plus every resumed
	// job, so the enqueues below and every admission-gated send have a
	// slot by construction.
	s.queue = make(chan *job, cfg.QueueDepth+len(resumed))
	for _, jb := range resumed {
		s.jobs[jb.key] = jb
		s.keys = append(s.keys, jb.key)
		s.queued.Add(1)
		s.queue <- jb
	}
	return s, nil
}

// Revision is the engine revision baked into every job key: the
// SHA-256 of the committed concurrency-certificate golden.
func (s *Server) Revision() string { return s.revision }

// Addr is the bound listen address, available after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Start binds the listener and spawns the server goroutines: the HTTP
// acceptor, JobWorkers queue workers, and the limiter refill ticker.
// Every one is joined by Close via the server WaitGroup.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed is the normal Shutdown return.
		_ = s.srv.Serve(ln)
	}()
	for w := 0; w < s.cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for jb := range s.queue {
				s.queued.Add(-1)
				s.runJob(jb)
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tickC, stopTick := s.cfg.Clock.Tick(s.cfg.RefillEvery)
		defer stopTick()
		for {
			select {
			case <-s.stop:
				return
			case <-tickC:
				s.limiter.Refill()
			}
		}
	}()
	return nil
}

// Close shuts the server down completely: abort in-flight points (their
// checkpoints survive for the next start), release parked handlers and
// the ticker, stop the listener, drain the queue, and join every
// goroutine. Idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.stopping.Store(true)
	close(s.stop)
	var err error
	if s.srv != nil {
		err = s.srv.Shutdown(context.Background())
	}
	close(s.queue)
	s.wg.Wait()
	return err
}

func (s *Server) checkpointPath(key string) string {
	return filepath.Join(s.cfg.CheckpointDir, key+".ckpt")
}

// loadCheckpoints scans the checkpoint directory and rebuilds a job for
// every file whose key matches this engine revision; stale-revision or
// unreadable files are left on disk untouched (their rows were computed
// by a different engine and must not be trusted).
func (s *Server) loadCheckpoints() ([]*job, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	ents, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []*job
	for _, name := range names {
		hdr, rows, err := readCheckpoint(filepath.Join(s.cfg.CheckpointDir, name))
		if err != nil {
			continue
		}
		var spec JobSpec
		if json.Unmarshal(hdr.Spec, &spec) != nil || spec.validate() != nil {
			continue
		}
		if hdr.Revision != s.revision || jobKey(s.revision, spec) != hdr.Key {
			continue
		}
		jb := newJob(hdr.Key, spec)
		for p, row := range rows {
			if p >= 0 && p < jb.points {
				jb.install(p, row)
			}
		}
		jb.resumed = jb.done
		s.resumedPoints.Add(int64(jb.done))
		out = append(out, jb)
	}
	return out, nil
}

// submit admits one validated job, returning its status and the HTTP
// code that describes the outcome: 200 done (possibly straight from the
// cache), 202 admitted or already in flight, 429 rate-limited, 503
// queue full or shutting down.
func (s *Server) submit(spec JobSpec) (JobStatus, int) {
	key := jobKey(s.revision, spec)
	// Content-addressed fast path: the artifact exists under this engine
	// revision, so the answer is already exact — zero simulator cycles.
	if _, ok := s.cache.Get(key); ok {
		return JobStatus{
			Key: key, Kind: spec.Kind, State: stateDone,
			Points: spec.points(), Done: spec.points(), Cached: true,
		}, http.StatusOK
	}
	if s.stopping.Load() {
		return JobStatus{Key: key, Error: "server is shutting down"}, http.StatusServiceUnavailable
	}
	s.mu.Lock()
	if jb, ok := s.jobs[key]; ok {
		s.mu.Unlock()
		st := jb.status()
		code := http.StatusOK
		if !terminal(st.State) {
			code = http.StatusAccepted
		}
		return st, code
	}
	if !s.limiter.Allow() {
		s.mu.Unlock()
		return JobStatus{Key: key, Error: "rate limit exceeded"}, http.StatusTooManyRequests
	}
	if s.queued.Load() >= int64(s.cfg.QueueDepth) {
		s.mu.Unlock()
		return JobStatus{Key: key, Error: "job queue is full"}, http.StatusServiceUnavailable
	}
	jb := newJob(key, spec)
	s.jobs[key] = jb
	s.keys = append(s.keys, key)
	s.queued.Add(1)
	s.mu.Unlock()
	select {
	case s.queue <- jb:
	default:
		// Unreachable by construction — capacity covers the admission
		// bound — but a handler must never block on the queue.
		s.queued.Add(-1)
		jb.setState(stateFailed, "job queue overflow")
		return jb.status(), http.StatusServiceUnavailable
	}
	return jb.status(), http.StatusAccepted
}

// runJob executes one campaign on a queue worker: resume-skip restored
// points, compute the rest over the point-worker pool, checkpoint and
// stream each as it lands, and park the job in its terminal state.
func (s *Server) runJob(jb *job) {
	if s.stopping.Load() {
		jb.setState(stateAborted, "server shut down before the job ran")
		return
	}
	jb.setState(stateRunning, "")
	var ckpt *checkpointWriter
	if s.cfg.CheckpointDir != "" {
		hdr := checkpointHeader{
			Key: jb.key, Revision: s.revision,
			Points: jb.points, Spec: jb.spec.canonical(),
		}
		w, err := newCheckpointWriter(s.checkpointPath(jb.key), hdr)
		if err != nil {
			jb.setState(stateFailed, err.Error())
			return
		}
		ckpt = w
	}
	rcfg := runner.Config{Workers: s.cfg.PointWorkers}
	_, err := runner.MapResume(rcfg, jb.points,
		jb.restored,
		func(i int) (json.RawMessage, error) {
			if s.stopping.Load() {
				return nil, errShutdown
			}
			if d := s.cfg.PointDelay; d > 0 {
				s.cfg.Clock.Sleep(d)
			}
			row, err := jb.spec.row(i)
			if err != nil {
				return nil, err
			}
			s.computed.Add(1)
			return row, nil
		},
		func(i int, row json.RawMessage) {
			if ckpt != nil {
				// A failed append only loses the checkpoint entry: on
				// resume the point is recomputed, byte-identically.
				_ = ckpt.append(i, row)
			}
			jb.install(i, row)
		})
	if ckpt != nil {
		_ = ckpt.close()
	}
	switch {
	case err == nil:
		if err := s.cache.Put(jb.key, jb.artifact()); err != nil {
			jb.setState(stateFailed, err.Error())
			return
		}
		if s.cfg.CheckpointDir != "" {
			os.Remove(s.checkpointPath(jb.key))
		}
		jb.setState(stateDone, "")
	case errors.Is(err, errShutdown):
		// Checkpoint stays: the next start re-admits this job and skips
		// every point recorded so far.
		jb.setState(stateAborted, "server shut down mid-campaign")
	default:
		jb.setState(stateFailed, err.Error())
	}
}
