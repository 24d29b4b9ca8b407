package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// JobSpec is the wire form of one campaign job: a kind tag plus that
// kind's spec. The spec IS the job identity — jobKey hashes its
// canonical JSON together with the engine revision, so equal specs on
// equal engines address the same artifact, and nothing execution-shaped
// (worker counts, delays) appears here.
type JobSpec struct {
	Kind  string                 `json:"kind"` // "sweep" or "chaos"
	Sweep *experiments.SweepSpec `json:"sweep,omitempty"`
	Chaos *ChaosJobSpec          `json:"chaos,omitempty"`
}

// ChaosJobSpec sizes a chaos-recovery campaign on the dual
// fractahedron pair — the same campaign cmd/chaos runs, with one trial
// per point (the checkpoint/resume unit).
type ChaosJobSpec struct {
	Trials  int   `json:"trials"`
	Packets int   `json:"packets"`
	Flits   int   `json:"flits"`
	Seed    int64 `json:"seed"`
}

// validate rejects malformed jobs at admission.
func (j JobSpec) validate() error {
	switch j.Kind {
	case "sweep":
		if j.Sweep == nil {
			return fmt.Errorf("serve: sweep job without a sweep spec")
		}
		if j.Chaos != nil {
			return fmt.Errorf("serve: sweep job with a chaos spec attached")
		}
		return j.Sweep.Validate()
	case "chaos":
		if j.Chaos == nil {
			return fmt.Errorf("serve: chaos job without a chaos spec")
		}
		if j.Sweep != nil {
			return fmt.Errorf("serve: chaos job with a sweep spec attached")
		}
		c := j.Chaos
		if c.Trials < 1 {
			return fmt.Errorf("serve: chaos trials %d, need >= 1", c.Trials)
		}
		if c.Packets < 1 {
			return fmt.Errorf("serve: chaos packets %d, need >= 1", c.Packets)
		}
		if c.Flits < 1 {
			return fmt.Errorf("serve: chaos flits %d, need >= 1", c.Flits)
		}
		return nil
	default:
		return fmt.Errorf("serve: unknown job kind %q (want \"sweep\" or \"chaos\")", j.Kind)
	}
}

// points is the campaign size in checkpointable units.
func (j JobSpec) points() int {
	switch j.Kind {
	case "sweep":
		return j.Sweep.Points()
	case "chaos":
		return j.Chaos.Trials
	}
	return 0
}

// canonical renders the job identity deterministically: unmarshalling
// the client's JSON and re-marshalling normalizes field order,
// whitespace and number formatting, so syntactically different
// submissions of the same job share one key.
func (j JobSpec) canonical() json.RawMessage {
	b, err := json.Marshal(j)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail on a validated spec.
		panic(fmt.Sprintf("serve: canonicalize job: %v", err))
	}
	return b
}

// jobKey derives the content address of a job's artifact:
// SHA-256(engine revision + "\n" + canonical spec JSON). The revision —
// repro.Revision, the hash of the engine's non-test Go source — changes
// whenever that source changes, so a cache can never serve rows computed
// by a different engine.
func jobKey(revision string, spec JobSpec) string {
	h := sha256.New()
	h.Write([]byte(revision))
	h.Write([]byte{'\n'})
	h.Write(spec.canonical())
	return hex.EncodeToString(h.Sum(nil))
}

// validKey gates path-derived keys before they touch the filesystem.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// rowFunc returns the function that computes one point's row — a pure
// function of (spec, point). Every point draws its systems from lab, so
// each topology is built once per run; a chaos job's campaign is built
// here, once.
func (j JobSpec) rowFunc(lab *experiments.Lab) (func(point int) (any, error), error) {
	switch j.Kind {
	case "sweep":
		return func(point int) (any, error) { return lab.SweepRow(*j.Sweep, point) }, nil
	case "chaos":
		c := j.Chaos
		campaign, err := lab.ChaosRecoverySpec(c.Trials, c.Packets, c.Flits, c.Seed)
		if err != nil {
			return nil, err
		}
		return func(point int) (any, error) { return chaos.Trial(campaign, point) }, nil
	}
	return nil, fmt.Errorf("serve: unknown job kind %q", j.Kind)
}

// Job lifecycle states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
	stateAborted = "aborted" // shutdown mid-campaign; checkpoint kept
)

func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateAborted
}

// job is one admitted campaign and its in-memory row state. rows/have
// fill in completion order; frontier is the length of the fully
// populated prefix — the exact set of rows the streaming handler may
// emit while preserving the merge-in-order contract.
type job struct {
	key    string
	spec   JobSpec
	points int

	mu       sync.Mutex
	state    string
	errMsg   string
	rows     []json.RawMessage
	have     []bool
	frontier int
	done     int // completed points, any order
	resumed  int // points restored from a checkpoint at startup
	subs     []chan struct{}
}

func newJob(key string, spec JobSpec) *job {
	n := spec.points()
	return &job{
		key: key, spec: spec, points: n, state: stateQueued,
		rows: make([]json.RawMessage, n), have: make([]bool, n),
	}
}

// install records one completed point, advances the streamable
// frontier, and wakes waiters.
func (j *job) install(point int, row json.RawMessage) {
	j.mu.Lock()
	if !j.have[point] {
		j.have[point] = true
		j.rows[point] = row
		j.done++
		for j.frontier < j.points && j.have[j.frontier] {
			j.frontier++
		}
	}
	j.mu.Unlock()
	j.notify()
}

// restored is the runner skip hook: a point already present (loaded
// from a checkpoint) is installed without running.
func (j *job) restored(point int) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.have[point] {
		return j.rows[point], true
	}
	return nil, false
}

func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	j.notify()
}

// snapshotFrom returns the streamable rows past sent and the state that
// was current with them — one atomic read, so a terminal state implies
// the returned rows complete the stream.
func (j *job) snapshotFrom(sent int) ([]json.RawMessage, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rows := append([]json.RawMessage(nil), j.rows[sent:j.frontier]...)
	return rows, j.state
}

// subscribe registers a wakeup channel. Capacity 1: a notify landing
// while the subscriber is mid-drain parks one signal, so no update is
// ever missed; further notifies coalesce into it.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	for i, s := range j.subs {
		if s == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	j.mu.Unlock()
}

// notify wakes every subscriber without blocking: the send is
// select-default, and a full capacity-1 channel already carries a
// pending wakeup.
func (j *job) notify() {
	j.mu.Lock()
	subs := append([]chan struct{}(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// JobStatus is the wire form of GET /v1/jobs/{key}.
type JobStatus struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Points  int    `json:"points"`
	Done    int    `json:"done"`
	Resumed int    `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
	Cached  bool   `json:"cached,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		Key: j.key, Kind: j.spec.Kind, State: j.state,
		Points: j.points, Done: j.done, Resumed: j.resumed, Error: j.errMsg,
	}
}

// artifact assembles the final NDJSON: rows in point order, one per
// line. Only called on a completed job, where rows is fully populated.
func (j *job) artifact() []byte {
	var buf bytes.Buffer
	for _, r := range j.rows {
		buf.Write(r)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
