package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/experiments"
)

// testSweep is a small but non-trivial campaign: 2 topologies x 2
// rates.
func testSweep(seed int64) JobSpec {
	return JobSpec{Kind: "sweep", Sweep: &experiments.SweepSpec{
		Specs:     []string{"fat-fract:levels=1", "ring:size=4"},
		Rates:     []float64{0.01, 0.03},
		Cycles:    200,
		Flits:     4,
		FIFODepth: 4,
		Seed:      seed,
	}}
}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJob(t *testing.T, s *Server, spec JobSpec) (JobStatus, int) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit reply (HTTP %d): %v", resp.StatusCode, err)
	}
	return st, resp.StatusCode
}

func get(t *testing.T, s *Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

func waitDone(t *testing.T, s *Server, key string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, code := get(t, s, "/v1/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d: %s", code, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never settled")
	return JobStatus{}
}

// TestLimiterDeterministic pins the token bucket as a pure function of
// (burst, perRefill, Allows, Refills) — the property the channel-based
// design buys: no wall clock anywhere in the accounting.
func TestLimiterDeterministic(t *testing.T) {
	l := NewLimiter(2, 1)
	for i, want := range []bool{true, true, false, false} {
		if got := l.Allow(); got != want {
			t.Fatalf("Allow #%d = %v, want %v", i, got, want)
		}
	}
	l.Refill()
	if !l.Allow() {
		t.Fatal("Allow after Refill = false")
	}
	if l.Allow() {
		t.Fatal("second Allow after one Refill = true")
	}
	// Refills never exceed the burst.
	for i := 0; i < 10; i++ {
		l.Refill()
	}
	if !l.Allow() || !l.Allow() {
		t.Fatal("bucket did not refill to burst")
	}
	if l.Allow() {
		t.Fatal("bucket exceeded burst after 10 refills")
	}
	// perRefill > 1 restores several at once.
	l3 := NewLimiter(3, 2)
	l3.Allow()
	l3.Allow()
	l3.Allow()
	l3.Refill()
	if !l3.Allow() || !l3.Allow() || l3.Allow() {
		t.Fatal("perRefill=2 did not restore exactly 2 tokens")
	}
	// nil limiter admits everything.
	var nilL *Limiter
	if NewLimiter(0, 1) != nil {
		t.Fatal("burst 0 should disable limiting")
	}
	if !nilL.Allow() {
		t.Fatal("nil limiter rejected")
	}
	nilL.Refill()
}

// TestLimiterConcurrent hammers one bucket from many goroutines: the
// number of admits can never exceed tokens issued.
func TestLimiterConcurrent(t *testing.T) {
	const burst, workers, tries = 8, 4, 100
	l := NewLimiter(burst, 1)
	admits := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			n := 0
			for i := 0; i < tries; i++ {
				if l.Allow() {
					n++
				}
			}
			admits <- n
		}()
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-admits
	}
	if total != burst {
		t.Fatalf("%d admits from a burst of %d with no refills", total, burst)
	}
}

// TestSubmitValidation: malformed jobs are rejected at admission with
// 400, never enqueued, and the server keeps answering. Decoding is strict:
// a field the job kind does not define (another kind's spec, a
// misspelling) or bytes after the object are rejected, never silently
// dropped from the job identity. A sweep whose simulator cannot be
// allocated is malformed too: admitted, its first point would panic on a
// worker goroutine and take the whole process down.
func TestSubmitValidation(t *testing.T) {
	s := startTestServer(t, Config{})
	sweep := `{"kind":"sweep","sweep":{"specs":["ring:size=4"],"rates":[0.01],"cycles":10,"flits":1,"fifo_depth":1`
	// A valid topology file on the server's file system: admission must
	// refuse to open paths a request names.
	topo := filepath.Join(t.TempDir(), "net.topo")
	if err := os.WriteFile(topo, []byte("router a 4\nrouter b 4\nnode n0\nnode n1\nlink a b\nlink a n0\nlink b n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"kind":"sweep","sweep":{"specs":["file:` + topo + `"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1}}`,
		`{`,
		`{"kind":"mystery"}`,
		`{"kind":"live","live":{"spec":"fat-fract:levels=1","runs":1,"packets":1,"flits":1}}`,
		`{"kind":"sweep"}`,
		`{"kind":"sweep","sweep":{"specs":["no-such:x=1"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1}}`,
		`{"kind":"chaos","chaos":{"trials":0,"packets":10,"flits":1}}`,
		sweep + `},"live":{"spec":"ring:size=4","runs":1}}`,
		sweep + `,"seeed":7}}`,
		sweep + `}}{"kind":"chaos"}`,
		sweep + `}} x`,
		`{"kind":"sweep","sweep":{"specs":["ring:size=4"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1125899906842624}}`,
		`{"kind":"sweep","sweep":{"specs":["ring:size=4"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1,"vcs":1125899906842624}}`,
		`{"kind":"sweep","sweep":{"specs":["mesh:cols=0"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1}}`,
		// Over the device bound: refused unbuilt, where it used to be
		// built (1.4 s) and then admitted.
		`{"kind":"sweep","sweep":{"specs":["ring:size=5000"],"rates":[0.1],"cycles":10,"flits":1,"fifo_depth":1}}`,
	} {
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	st, code := postJob(t, s, testSweep(1))
	if code != http.StatusAccepted {
		t.Fatalf("good job after the rejections: HTTP %d (%+v)", code, st)
	}
	if st = waitDone(t, s, st.Key); st.State != stateDone {
		t.Fatalf("good job after the rejections: %+v", st)
	}
}

// TestQueueFullRejects: with one busy worker and QueueDepth 1, a third
// job is refused with 503 + Retry-After, and the refusal is observable
// before anything else finishes.
func TestQueueFullRejects(t *testing.T) {
	s := startTestServer(t, Config{
		QueueDepth: 1, JobWorkers: 1, PointWorkers: 1,
		PointDelay: 50 * time.Millisecond,
	})
	st1, code := postJob(t, s, testSweep(1))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d, want 202", code)
	}
	// Wait until the worker picked job 1 up, so job 2 occupies the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := get(t, s, "/v1/jobs/"+st1.Key)
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != stateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := postJob(t, s, testSweep(2)); code != http.StatusAccepted {
		t.Fatalf("job 2: HTTP %d, want 202", code)
	}
	b, err := json.Marshal(testSweep(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job 3: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestRateLimitRejects: with a burst of 1 and no refill ticking to
// speak of, the second distinct submission gets 429 + Retry-After, and
// an explicit Refill admits the next.
func TestRateLimitRejects(t *testing.T) {
	s := startTestServer(t, Config{
		RateBurst: 1, RateRefill: 1, RefillEvery: time.Hour,
	})
	if _, code := postJob(t, s, testSweep(1)); code != http.StatusAccepted {
		t.Fatalf("job 1: HTTP %d, want 202", code)
	}
	b, err := json.Marshal(testSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 2: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The deterministic test hook: refill explicitly, no clock involved.
	s.limiter.Refill()
	if _, code := postJob(t, s, testSweep(2)); code != http.StatusAccepted {
		t.Fatalf("job 2 after refill: HTTP %d, want 202", code)
	}
}

// TestStreamAndArtifact: the streamed NDJSON equals the artifact
// byte-for-byte, the artifact has one row per point in point order, and
// every row matches an independent SweepSpec.Row computation.
func TestStreamAndArtifact(t *testing.T) {
	s := startTestServer(t, Config{})
	spec := testSweep(7)
	st, code := postJob(t, s, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	rows, rcode := get(t, s, "/v1/jobs/"+st.Key+"/rows")
	if rcode != http.StatusOK {
		t.Fatalf("rows: HTTP %d", rcode)
	}
	fin := waitDone(t, s, st.Key)
	if fin.State != stateDone {
		t.Fatalf("job settled as %q (%s)", fin.State, fin.Error)
	}
	art, acode := get(t, s, "/v1/artifacts/"+st.Key)
	if acode != http.StatusOK {
		t.Fatalf("artifact: HTTP %d", acode)
	}
	if !bytes.Equal(rows, art) {
		t.Fatal("streamed rows differ from the artifact")
	}
	lines := bytes.Split(bytes.TrimSuffix(art, []byte{'\n'}), []byte{'\n'})
	if len(lines) != spec.points() {
		t.Fatalf("%d rows, want %d", len(lines), spec.points())
	}
	for i, line := range lines {
		r, err := spec.Sweep.Row(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("row %d: served %s, computed %s", i, line, want)
		}
	}
}

// TestChaosJob runs a chaos-kind campaign through the server and checks
// the rows against direct chaos.Trial execution.
func TestChaosJob(t *testing.T) {
	s := startTestServer(t, Config{})
	spec := JobSpec{Kind: "chaos", Chaos: &ChaosJobSpec{Trials: 2, Packets: 100, Flits: 3, Seed: 2}}
	st, code := postJob(t, s, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	fin := waitDone(t, s, st.Key)
	if fin.State != stateDone {
		t.Fatalf("job settled as %q (%s)", fin.State, fin.Error)
	}
	art, _ := get(t, s, "/v1/artifacts/"+st.Key)
	lines := bytes.Split(bytes.TrimSuffix(art, []byte{'\n'}), []byte{'\n'})
	if len(lines) != 2 {
		t.Fatalf("%d rows, want 2", len(lines))
	}
	c := spec.Chaos
	campaign, err := new(experiments.Lab).ChaosRecoverySpec(c.Trials, c.Packets, c.Flits, c.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range lines {
		tr, err := chaos.Trial(campaign, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("trial %d row differs from direct chaos.Trial", i)
		}
	}
}

// TestCacheHitServesRepeat: a repeat submission of a finished job is
// served from the artifact cache — 200, cached flag, hit counter up,
// computed counter flat.
func TestCacheHitServesRepeat(t *testing.T) {
	s := startTestServer(t, Config{CacheDir: t.TempDir()})
	spec := testSweep(5)
	st, _ := postJob(t, s, spec)
	if fin := waitDone(t, s, st.Key); fin.State != stateDone {
		t.Fatalf("job settled as %q (%s)", fin.State, fin.Error)
	}
	computed := s.computed.Load()
	if computed != int64(spec.points()) {
		t.Fatalf("computed %d points, want %d", computed, spec.points())
	}
	hitsBefore, _ := s.cache.Stats()
	re, code := postJob(t, s, spec)
	if code != http.StatusOK || !re.Cached || re.State != stateDone {
		t.Fatalf("repeat: HTTP %d cached=%v state=%q, want 200/true/done", code, re.Cached, re.State)
	}
	if got := s.computed.Load(); got != computed {
		t.Fatalf("repeat submission computed %d new points", got-computed)
	}
	if hits, _ := s.cache.Stats(); hits <= hitsBefore {
		t.Fatal("repeat submission did not register a cache hit")
	}
	// And the artifact survives a brand-new server sharing the cache dir.
	s2 := startTestServer(t, Config{CacheDir: s.cfg.CacheDir})
	re2, code2 := postJob(t, s2, spec)
	if code2 != http.StatusOK || !re2.Cached {
		t.Fatalf("cross-process repeat: HTTP %d cached=%v, want 200/true", code2, re2.Cached)
	}
	if got := s2.computed.Load(); got != 0 {
		t.Fatalf("cross-process repeat computed %d points, want 0", got)
	}
}

// TestAbortResumeByteIdentical is the in-process half of the resume
// story: close the server mid-campaign (graceful abort keeps the
// checkpoint), restart on the same directories, and require the final
// artifact to be byte-identical to an uninterrupted run — with the
// restored points never recomputed.
func TestAbortResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	cache := filepath.Join(dir, "cache")
	spec := testSweep(9)

	// Uninterrupted reference, separate directories.
	ref := startTestServer(t, Config{})
	rst, _ := postJob(t, ref, spec)
	if fin := waitDone(t, ref, rst.Key); fin.State != stateDone {
		t.Fatalf("reference settled as %q (%s)", fin.State, fin.Error)
	}
	want, _ := get(t, ref, "/v1/artifacts/"+rst.Key)

	// Interrupted run: slow points down, close after ≥1 landed.
	s1 := startTestServer(t, Config{
		CheckpointDir: ckpt, CacheDir: cache,
		PointWorkers: 1, PointDelay: 30 * time.Millisecond,
	})
	st, code := postJob(t, s1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := get(t, s1, "/v1/jobs/"+st.Key)
		var cur JobStatus
		if err := json.Unmarshal(b, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Done >= 1 && cur.Done < cur.Points {
			break
		}
		if cur.Done == cur.Points || time.Now().After(deadline) {
			t.Fatalf("no mid-campaign window to abort in (done %d/%d)", cur.Done, cur.Points)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if jb := s1.lookup(st.Key); jb.status().State != stateAborted {
		t.Fatalf("job after close: %q, want aborted", jb.status().State)
	}

	// Restart on the same directories: the checkpoint re-admits the job.
	s2 := startTestServer(t, Config{CheckpointDir: ckpt, CacheDir: cache})
	fin := waitDone(t, s2, st.Key)
	if fin.State != stateDone {
		t.Fatalf("resumed job settled as %q (%s)", fin.State, fin.Error)
	}
	if fin.Resumed < 1 {
		t.Fatalf("resumed %d points, want >= 1", fin.Resumed)
	}
	if got := s2.computed.Load(); got+int64(fin.Resumed) != int64(spec.points()) {
		t.Fatalf("resumed run computed %d points with %d restored, want %d total",
			got, fin.Resumed, spec.points())
	}
	got, _ := get(t, s2, "/v1/artifacts/"+st.Key)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	// The checkpoint is consumed on completion.
	if _, _, err := readCheckpoint(s2.checkpointPath(st.Key)); err == nil {
		t.Fatal("checkpoint file survived job completion")
	}
}

// TestStaleCheckpointNotResumed: a checkpoint whose header names another
// engine revision is never resumed, even under the current job key; its
// rows were computed by a different engine, so the job recomputes every
// point.
func TestStaleCheckpointNotResumed(t *testing.T) {
	ckpt := t.TempDir()
	spec := testSweep(11)

	ref := startTestServer(t, Config{})
	rst, _ := postJob(t, ref, spec)
	if fin := waitDone(t, ref, rst.Key); fin.State != stateDone {
		t.Fatalf("reference settled as %q (%s)", fin.State, fin.Error)
	}
	want, _ := get(t, ref, "/v1/artifacts/"+rst.Key)

	hdr := checkpointHeader{
		Key: jobKey(repro.Revision(), spec), Revision: strings.Repeat("0", 64),
		Points: spec.points(), Spec: spec.canonical(),
	}
	w, err := newCheckpointWriter(filepath.Join(ckpt, hdr.Key+".ckpt"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.points(); i++ {
		if err := w.append(i, json.RawMessage(`{"stale":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	s := startTestServer(t, Config{CheckpointDir: ckpt})
	if got := s.resumedPoints.Load(); got != 0 {
		t.Fatalf("resumed %d points from a stale-revision checkpoint", got)
	}
	st, code := postJob(t, s, spec)
	if code != http.StatusAccepted || st.Key != hdr.Key {
		t.Fatalf("submit: HTTP %d, key %s, want 202 and %s", code, st.Key, hdr.Key)
	}
	if fin := waitDone(t, s, st.Key); fin.State != stateDone || fin.Resumed != 0 {
		t.Fatalf("job settled as %q (%s) with %d resumed points", fin.State, fin.Error, fin.Resumed)
	}
	if got := s.computed.Load(); got != int64(spec.points()) {
		t.Fatalf("computed %d points, want all %d", got, spec.points())
	}
	if got, _ := get(t, s, "/v1/artifacts/"+st.Key); !bytes.Equal(got, want) {
		t.Fatalf("artifact after a stale checkpoint:\n got %s\nwant %s", got, want)
	}
}

// TestJobKeyFollowsRevision: the job key covers the engine revision, so
// the same spec under another engine addresses another artifact, and a
// server keys its jobs by repro.Revision.
func TestJobKeyFollowsRevision(t *testing.T) {
	spec := testSweep(1)
	rev := repro.Revision()
	if jobKey(rev, spec) != jobKey(rev, spec) {
		t.Fatal("job key is not a function of (revision, spec)")
	}
	for _, other := range []string{"", strings.Repeat("0", 64), rev[:63]} {
		if jobKey(other, spec) == jobKey(rev, spec) {
			t.Errorf("revision %q gives the key of revision %s", other, rev)
		}
	}
	s := startTestServer(t, Config{})
	if st, _ := postJob(t, s, spec); s.Revision() != rev || st.Key != jobKey(rev, spec) {
		t.Fatalf("server revision %s, key %s; want %s, %s", s.Revision(), st.Key, rev, jobKey(rev, spec))
	}
}

// TestCheckpointTornTail: a checkpoint whose last line was torn by a
// crash loads every clean point and drops the tail.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt")
	hdr := checkpointHeader{Key: strings.Repeat("ab", 32), Revision: "r", Points: 4, Spec: json.RawMessage(`{}`)}
	w, err := newCheckpointWriter(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.append(i, json.RawMessage(fmt.Sprintf(`{"p":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a line.
	f, err := newCheckpointWriter(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	f.f.Write([]byte(`{"point":3,"row":{"p"`))
	f.close()

	got, rows, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != hdr.Key || got.Points != 4 {
		t.Fatalf("header round-trip: %+v", got)
	}
	if len(rows) != 3 {
		t.Fatalf("loaded %d rows, want 3 (torn tail dropped)", len(rows))
	}
	for i := 0; i < 3; i++ {
		if string(rows[i]) != fmt.Sprintf(`{"p":%d}`, i) {
			t.Fatalf("row %d: %s", i, rows[i])
		}
	}
}

// TestStatuszShape: the counters page carries the engine revision and
// the jobs/queue/points/cache sections.
func TestStatuszShape(t *testing.T) {
	s := startTestServer(t, Config{})
	st, _ := postJob(t, s, testSweep(3))
	waitDone(t, s, st.Key)
	b, code := get(t, s, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: HTTP %d", code)
	}
	var z Statusz
	if err := json.Unmarshal(b, &z); err != nil {
		t.Fatal(err)
	}
	if z.Revision != s.Revision() || len(z.Revision) != 64 {
		t.Fatalf("statusz revision %q", z.Revision)
	}
	if z.Jobs[stateDone] != 1 {
		t.Fatalf("statusz jobs: %v", z.Jobs)
	}
	if z.Points.Computed == 0 {
		t.Fatal("statusz computed counter never moved")
	}
}

// TestServerGoroutinesJoined: a full start/submit/stream/close cycle
// leaves no goroutine behind — the dynamic witness of the goleak
// obligation the certificate proves statically.
func TestServerGoroutinesJoined(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s := startTestServer(t, Config{JobWorkers: 2})
		st, _ := postJob(t, s, testSweep(int64(20+i)))
		get(t, s, "/v1/jobs/"+st.Key+"/rows")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after three server lifecycles", before, runtime.NumGoroutine())
}
