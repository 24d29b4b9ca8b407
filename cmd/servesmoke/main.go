// Command servesmoke proves the campaign server's survivability and
// cache stories end to end against real campaignd processes:
//
//  1. Run a sweep campaign to completion on server A (its own dirs) and
//     keep the artifact bytes — the uninterrupted reference.
//  2. Run the same campaign on server B (separate dirs, slowed by
//     -point-delay), SIGKILL the process mid-campaign, restart it on
//     the same dirs, and let the resumed campaign finish.
//  3. Byte-compare the resumed artifact against the reference: a
//     checkpointed restart must reproduce the uninterrupted bytes
//     exactly.
//  4. Re-submit the same spec: the reply must be cache-served (zero new
//     simulator points; the computed counter stays flat, cache hits
//     climb).
//
// Server logs and the final /statusz snapshot are written under -dir
// for CI to archive. Exit status 0 only if every check passes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

var jobSpec = []byte(`{
  "kind": "sweep",
  "sweep": {
    "specs": ["fat-fract:levels=1", "ring:size=4"],
    "rates": [0.01, 0.02, 0.03],
    "cycles": 300,
    "flits": 4,
    "fifo_depth": 4,
    "seed": 11
  }
}`)

const points = 6 // 2 specs x 3 rates

func main() {
	bin := flag.String("bin", "bin/campaignd", "campaignd binary to exercise")
	dir := flag.String("dir", "bin/serve-smoke", "working directory for logs, checkpoints, caches and artifacts")
	flag.Parse()
	if err := run(*bin, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

func run(bin, dir string) error {
	// The smoke proves cold-start behaviour (a fresh cache miss, a resume
	// from a mid-campaign kill); checkpoints and caches left over from a
	// previous run would short-circuit both phases, so start clean.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}

	// Phase 1: the uninterrupted reference artifact.
	a, err := startServer(abs, filepath.Join(dir, "serverA.log"),
		"-checkpoint", filepath.Join(dir, "a-ckpt"), "-cache", filepath.Join(dir, "a-cache"))
	if err != nil {
		return err
	}
	defer a.kill()
	key, err := submit(a.addr, jobSpec)
	if err != nil {
		return err
	}
	if err := waitState(a.addr, key, "done", 0, 60*time.Second); err != nil {
		return fmt.Errorf("reference campaign: %w", err)
	}
	ref, err := fetch(a.addr, "/v1/artifacts/"+key)
	if err != nil {
		return err
	}
	if n := bytes.Count(ref, []byte{'\n'}); n != points {
		return fmt.Errorf("reference artifact has %d rows, want %d", n, points)
	}
	if err := a.shutdown(); err != nil {
		return err
	}
	fmt.Printf("servesmoke: reference artifact %s (%d bytes)\n", key[:12], len(ref))

	// Phase 2: same campaign, slowed down, killed mid-flight.
	ckptB := filepath.Join(dir, "b-ckpt")
	cacheB := filepath.Join(dir, "b-cache")
	b1, err := startServer(abs, filepath.Join(dir, "serverB1.log"),
		"-checkpoint", ckptB, "-cache", cacheB,
		"-point-delay", "300ms", "-point-workers", "1")
	if err != nil {
		return err
	}
	defer b1.kill()
	if _, err := submit(b1.addr, jobSpec); err != nil {
		return err
	}
	// Wait until some — but not all — points are checkpointed, then
	// SIGKILL: no shutdown path runs, the checkpoint is whatever made it
	// to disk.
	if err := waitState(b1.addr, key, "running", 2, 60*time.Second); err != nil {
		return fmt.Errorf("mid-campaign progress: %w", err)
	}
	b1.kill()
	fmt.Println("servesmoke: killed server B mid-campaign")

	// Phase 3: restart on the same dirs; the campaign resumes and finishes.
	b2, err := startServer(abs, filepath.Join(dir, "serverB2.log"),
		"-checkpoint", ckptB, "-cache", cacheB)
	if err != nil {
		return err
	}
	defer b2.kill()
	if err := waitState(b2.addr, key, "done", 0, 60*time.Second); err != nil {
		return fmt.Errorf("resumed campaign: %w", err)
	}
	st, err := status(b2.addr, key)
	if err != nil {
		return err
	}
	if st.Resumed < 2 {
		return fmt.Errorf("resumed campaign restored %d points, want >= 2", st.Resumed)
	}
	got, err := fetch(b2.addr, "/v1/artifacts/"+key)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("resumed artifact differs from the uninterrupted reference (%d vs %d bytes)", len(got), len(ref))
	}
	rows, err := fetch(b2.addr, "/v1/jobs/"+key+"/rows")
	if err != nil {
		return err
	}
	if !bytes.Equal(rows, ref) {
		return fmt.Errorf("streamed rows differ from the artifact")
	}
	fmt.Printf("servesmoke: resumed artifact byte-identical (%d points restored from checkpoint)\n", st.Resumed)

	// Phase 4: a repeat submission is fully cache-served.
	before, err := statusz(b2.addr)
	if err != nil {
		return err
	}
	st2, code, err := submitStatus(b2.addr, jobSpec)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !st2.Cached || st2.State != "done" {
		return fmt.Errorf("repeat submission: code %d, cached %v, state %q; want 200/true/done", code, st2.Cached, st2.State)
	}
	after, err := statusz(b2.addr)
	if err != nil {
		return err
	}
	if after.Points.Computed != before.Points.Computed {
		return fmt.Errorf("repeat submission computed %d new points, want 0",
			after.Points.Computed-before.Points.Computed)
	}
	if after.Cache.Hits <= before.Cache.Hits {
		return fmt.Errorf("repeat submission did not count a cache hit (%d -> %d)", before.Cache.Hits, after.Cache.Hits)
	}
	raw, err := fetch(b2.addr, "/statusz")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cache-stats.json"), raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("servesmoke: repeat submission cache-served (hits %d -> %d, computed flat at %d)\n",
		before.Cache.Hits, after.Cache.Hits, after.Points.Computed)
	return b2.shutdown()
}

// server is one campaignd child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// startServer launches campaignd on an ephemeral port, teeing its
// output to logPath and parsing the bound address from the startup
// line.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		_ = logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logf, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		_ = logf.Close()
		return nil, fmt.Errorf("campaignd (%s) never reported its address", logPath)
	}
	s := &server{cmd: cmd, addr: addr, log: logf}
	// Keep draining stdout into the log so the child never blocks on a
	// full pipe.
	go func() {
		_, _ = io.Copy(logf, pipe)
	}()
	return s, nil
}

// kill SIGKILLs the child — the unclean death the checkpoint must survive.
func (s *server) kill() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Kill()
	}
	_ = s.cmd.Wait()
	_ = s.log.Close()
}

// shutdown asks for the graceful path (SIGTERM) and waits.
func (s *server) shutdown() error {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	err := s.cmd.Wait()
	_ = s.log.Close()
	return err
}

type jobStatus struct {
	Key     string `json:"key"`
	State   string `json:"state"`
	Points  int    `json:"points"`
	Done    int    `json:"done"`
	Resumed int    `json:"resumed"`
	Error   string `json:"error"`
	Cached  bool   `json:"cached"`
}

type statuszReply struct {
	Points struct {
		Computed int64 `json:"computed"`
		Resumed  int64 `json:"resumed"`
	} `json:"points"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func submit(addr string, spec []byte) (string, error) {
	st, code, err := submitStatus(addr, spec)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d (%s)", code, st.Error)
	}
	return st.Key, nil
}

func submitStatus(addr string, spec []byte) (jobStatus, int, error) {
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jobStatus{}, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, resp.StatusCode, err
	}
	return st, resp.StatusCode, nil
}

func status(addr, key string) (jobStatus, error) {
	b, err := fetch(addr, "/v1/jobs/"+key)
	if err != nil {
		return jobStatus{}, err
	}
	var st jobStatus
	err = json.Unmarshal(b, &st)
	return st, err
}

func statusz(addr string) (statuszReply, error) {
	b, err := fetch(addr, "/statusz")
	if err != nil {
		return statuszReply{}, err
	}
	var st statuszReply
	err = json.Unmarshal(b, &st)
	return st, err
}

func fetch(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// waitState polls the job until it reaches state (and, when minDone >
// 0, at least that many completed points), failing on a terminal state
// that isn't the target.
func waitState(addr, key, state string, minDone int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := status(addr, key)
		if err == nil {
			if st.State == state && st.Done >= minDone {
				return nil
			}
			terminal := st.State == "done" || st.State == "failed" || st.State == "aborted"
			if terminal && st.State != state {
				return fmt.Errorf("job %s settled as %q (%s) waiting for %q", key[:12], st.State, st.Error, state)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for job %s to reach %q", key[:12], state)
}
