package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/serve"
)

// client is the campaign workload's only HTTP client. Its transport
// allows one connection, and every call completes before the next one
// starts: a closed loop with one user.
type client struct {
	hc   *http.Client
	base string
}

func newClient() *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tp, Timeout: time.Minute}}
}

func (c *client) submit(spec serve.JobSpec) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

// rows streams a job's NDJSON rows, calling more after each row; it
// stops early, dropping the connection, when more returns false.
func (c *client) rows(key string, more func(n int) bool) ([]byte, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + key + "/rows")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET rows of %s: %s", key, resp.Status)
	}
	var out []byte
	br := bufio.NewReader(resp.Body)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		out = append(out, line...)
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if more != nil && !more(n) {
			return out, nil
		}
	}
}

func (c *client) statusz() (serve.Statusz, error) {
	var st serve.Statusz
	b, err := c.get("/statusz")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// idle waits until the server has no job queued or running: a job's
// artifact can be served while its worker still removes the checkpoint.
// Before the first server starts there is nothing to wait for.
func (c *client) idle() error {
	if c.base == "" {
		return nil
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := c.statusz()
		if err != nil {
			return err
		}
		busy := st.Jobs["queued"] + st.Jobs["running"]
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still has %d jobs in flight after a minute", busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// runJob takes one job from submit to artifact and returns its key, the
// streamed bytes, the artifact and the time to the first streamed row.
func (c *client) runJob(tr *tracer, parent int, spec serve.JobSpec) (key string, streamed, art []byte, firstRow float64, err error) {
	t0 := time.Now()
	var st serve.JobStatus
	var code int
	tr.do(parent, "serve.submit", "", func() { st, code, err = c.submit(spec) })
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d, want %d (%s)", code, http.StatusAccepted, st.Error)
	}
	if err != nil {
		return "", nil, nil, 0, err
	}
	wait := tr.start(parent, "serve.first_row", "")
	stream := 0
	streamed, err = c.rows(st.Key, func(n int) bool {
		if n == 1 {
			firstRow = time.Since(t0).Seconds()
			tr.end(wait)
			stream = tr.start(parent, "serve.stream", "")
		}
		return true
	})
	tr.end(stream)
	if err != nil {
		return "", nil, nil, 0, err
	}
	tr.do(parent, "serve.artifact", "", func() { art, err = c.get("/v1/artifacts/" + st.Key) })
	return st.Key, streamed, art, firstRow, err
}

func startServer(cfg serve.Config) (*serve.Server, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// recompute computes a sweep job's artifact without the server: the
// same points over runner.Map, one JSON row per line.
func recompute(tr *tracer, parent int, spec *experiments.SweepSpec, workers int) ([]byte, error) {
	id := tr.start(parent, "runner.map", "")
	rows, err := runner.Map(runner.Config{Workers: workers}, spec.Points(), func(i int) (experiments.SweepPointRow, error) {
		var r experiments.SweepPointRow
		var err error
		tr.do(id, "experiments.row", fmt.Sprint(i), func() { r, err = spec.Row(i, 0) })
		return r, err
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// runCampaign is campaignd's path from submit to artifact: an in-process
// server driven over HTTP by one client. Cold sweep jobs exercise
// checkpoint appends and cache writes; one job interrupted by a server
// restart exercises checkpoint reads; repeat fetches exercise cache
// reads.
func runCampaign(b *bench) error {
	dir, err := b.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := newClient()
	defer c.hc.CloseIdleConnections()
	b.idle = c.idle
	// Job j's seed is seed·1000+j, so every job of a run is distinct and
	// none is answered from the cache.
	sweep := func(j int, specs []string, rates []float64) serve.JobSpec {
		return serve.JobSpec{Kind: "sweep", Sweep: &experiments.SweepSpec{
			Specs: specs, Rates: rates, Cycles: b.sz.CampaignCycles,
			Flits: flits, FIFODepth: 4, Seed: b.seed*1000 + int64(j),
		}}
	}
	cold := func(j int) serve.JobSpec { return sweep(j, b.sz.CampaignSpecs, b.sz.CampaignRates) }
	points := len(b.sz.CampaignSpecs) * len(b.sz.CampaignRates)
	warm := sweep(998, b.sz.CampaignSpecs, b.sz.CampaignRates[:min(8, len(b.sz.CampaignRates))])
	warmPoints := warm.Sweep.Points()

	// checkRows checks a finished job: the streamed bytes equal the
	// artifact, one row per point, and no point deadlocked.
	checkRows := func(what string, streamed, art []byte, want int) {
		lines := bytes.Split(bytes.TrimSuffix(art, []byte("\n")), []byte("\n"))
		ok := bytes.Equal(streamed, art) && len(lines) == want
		for _, l := range lines {
			var r experiments.SweepPointRow
			ok = ok && json.Unmarshal(l, &r) == nil && !r.Deadlocked
		}
		b.check(ok, "%s: streamed %d bytes, artifact %d bytes with %d rows (want %d, none deadlocked)",
			what, len(streamed), len(art), len(lines), want)
	}

	// Set-up: a server on fresh directories, started and warmed up by a
	// eight-rate job (about 0.25 s at default sizes). The last one stays up.
	var srv *serve.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	var cfg serve.Config
	err = b.setup(func(rep int, tr *tracer) error {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return err
			}
		}
		root := tr.start(0, "setup", "server")
		defer tr.end(root)
		d := filepath.Join(dir, fmt.Sprint("server", rep))
		cfg = serve.Config{
			Addr: "127.0.0.1:0", PointWorkers: b.workers,
			CheckpointDir: filepath.Join(d, "checkpoints"), CacheDir: filepath.Join(d, "cache"),
		}
		var err error
		tr.do(root, "serve.start", "", func() { srv, err = startServer(cfg) })
		if err != nil {
			return err
		}
		c.base = "http://" + srv.Addr()
		_, streamed, art, _, err := c.runJob(nil, 0, warm)
		if err == nil {
			checkRows("warm-up job", streamed, art, warmPoints)
		}
		return err
	})
	if err != nil {
		return err
	}

	var keys []string
	arts := map[string][]byte{}
	err = b.loop(true, func(j int, tr *tracer) error {
		root := tr.start(0, "job", fmt.Sprint(j))
		defer tr.end(root)
		key, streamed, art, firstRow, err := c.runJob(tr, root, cold(j))
		if err != nil {
			return err
		}
		checkRows(fmt.Sprintf("job %d", j), streamed, art, points)
		keys, arts[key] = append(keys, key), art
		if tr == nil {
			b.add("first_row_s", "s", "lower", firstRow)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Restart: close the server once ResumeAfter rows have streamed,
	// start a new one on the same directories, and stream the resumed
	// job to completion.
	before, err := c.statusz()
	if err != nil {
		return err
	}
	tr := b.tr
	restart := tr.start(0, "restart", "")
	rspec := cold(999)
	st, code, err := c.submit(rspec)
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("submit restart job: HTTP %d: %v", code, err)
	}
	if _, err := c.rows(st.Key, func(n int) bool { return n < b.sz.ResumeAfter }); err != nil {
		return err
	}
	closed := time.Now()
	tr.do(restart, "serve.restart", "", func() {
		if err = srv.Close(); err == nil {
			srv, err = startServer(cfg)
		}
	})
	if err != nil {
		return err
	}
	c.base = "http://" + srv.Addr()
	streamed, err := c.rows(st.Key, nil)
	if err != nil {
		return err
	}
	resumed, err := c.get("/v1/artifacts/" + st.Key)
	if err != nil {
		return err
	}
	b.add("resume_s", "s", "lower", time.Since(closed).Seconds())
	tr.end(restart)
	checkRows("resumed job", streamed, resumed, points)

	rec := tr.start(0, "recompute", "")
	t := time.Now()
	want, err := recompute(tr, rec, rspec.Sweep, b.workers)
	recomputeS := time.Since(t).Seconds()
	tr.end(rec)
	if err != nil {
		return err
	}
	b.check(bytes.Equal(resumed, want), "resumed artifact (%d bytes) differs from a direct recomputation (%d bytes)", len(resumed), len(want))

	// Cache: repeat fetches of finished artifacts, and one repeat
	// submission, all answered from the artifact cache.
	cache := tr.start(0, "cache", "")
	for i := 0; i < b.sz.CacheFetches; i++ {
		key := keys[i%len(keys)]
		t := time.Now()
		var got []byte
		tr.do(cache, "serve.cache_hit", "", func() { got, err = c.get("/v1/artifacts/" + key) })
		if err != nil {
			return err
		}
		b.add("cache_hit_ms", "ms", "lower", float64(time.Since(t).Nanoseconds())/1e6)
		b.check(bytes.Equal(got, arts[key]), "cache-served artifact %s differs from the streamed one", key)
	}
	st, code, err = c.submit(cold(0))
	if err != nil {
		return err
	}
	b.check(code == http.StatusOK && st.Cached, "repeat submission: HTTP %d, cached %v; want 200 from the cache", code, st.Cached)
	tr.end(cache)
	after, err := c.statusz()
	if err != nil {
		return err
	}
	b.add("peak_rss_mb", "MB", "lower", peakRSSMB())
	if tr == nil {
		return nil
	}

	probe := tr.start(0, "probe", "point build")
	for _, spec := range b.sz.CampaignSpecs {
		tr.do(probe, "core.build", spec, func() { _, _, err = core.ParseSystem(spec) })
		if err != nil {
			return err
		}
	}
	tr.end(probe)

	spans := tr.snapshot()
	b.addLayer("core.build_s", spans, buildSpans...)
	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	b.add("serve.submit_ms", "ms", "lower", ms(durations(spans, "serve.submit"))...)
	b.add("serve.first_row_s", "s", "lower", durations(spans, "serve.first_row")...)
	b.add("serve.stream_s", "s", "lower", durations(spans, "serve.stream")...)
	b.add("serve.artifact_ms", "ms", "lower", ms(durations(spans, "serve.artifact"))...)
	hits := ms(durations(spans, "serve.cache_hit"))
	b.add("serve.cache_hit_ms.p50", "ms", "lower", percentile(hits, 50))
	b.add("serve.cache_hit_ms.p95", "ms", "lower", percentile(hits, 95))
	b.add("serve.restart_s", "s", "lower", durations(spans, "serve.restart")...)
	b.add("serve.overhead_s", "s", "lower", median(b.metrics["job_wall_s"].samples)-recomputeS)
	// The closed server's work on the restart job is known only through
	// what it checkpointed: the points the new server resumed.
	computed := before.Points.Computed + after.Points.Resumed + after.Points.Computed
	distinct := warmPoints + points*(len(keys)+1)
	b.add("serve.points_computed", "count", "lower", float64(computed))
	b.add("serve.points_resumed", "count", "higher", float64(after.Points.Resumed))
	b.add("serve.cache_hits", "count", "higher", float64(before.Cache.Hits+after.Cache.Hits))
	b.add("serve.cache_misses", "count", "lower", float64(before.Cache.Misses+after.Cache.Misses))
	b.add("serve.recompute_ratio", "ratio", "lower", float64(computed)/float64(distinct))
	b.addRunner(spans, "experiments.row")
	return nil
}
