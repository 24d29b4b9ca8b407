package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Checkpoint files make a campaign survivable: one header line naming
// the job (key, engine revision, point count, spec), then one line per
// completed point, appended as the point lands. Every line is a single
// unbuffered os.File write, so a SIGKILL can tear at most the final
// line — and because every row is a pure function of (spec, point), a
// torn or lost line only costs recomputing that point, never
// correctness. The reader tolerates exactly that: it stops at the first
// undecodable line and ignores duplicate or out-of-range points.

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Key      string          `json:"key"`
	Revision string          `json:"revision"`
	Points   int             `json:"points"`
	Spec     json.RawMessage `json:"spec"`
}

// checkpointLine is one completed point.
type checkpointLine struct {
	Point int             `json:"point"`
	Row   json.RawMessage `json:"row"`
}

// checkpointWriter appends completed points to one job's checkpoint.
// append is safe for concurrent use — the runner's emit hook fires from
// whichever worker finished the point.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// newCheckpointWriter opens (or resumes) the checkpoint at path. A
// fresh file gets the header line; a resumed file is appended to as-is.
func newCheckpointWriter(path string, hdr checkpointHeader) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	if st.Size() == 0 {
		b, err := json.Marshal(hdr)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: checkpoint: %w", err)
		}
	}
	return &checkpointWriter{f: f}, nil
}

// append persists one completed point as a single write.
func (w *checkpointWriter) append(point int, row json.RawMessage) error {
	b, err := json.Marshal(checkpointLine{Point: point, Row: row})
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err = w.f.Write(append(b, '\n'))
	return err
}

func (w *checkpointWriter) close() error { return w.f.Close() }

// readCheckpoint loads a checkpoint file: the header plus every cleanly
// recorded point, first record wins on duplicates. Decoding stops at
// the first torn/invalid line (the SIGKILL tail); what was read before
// it is still good.
func readCheckpoint(path string) (checkpointHeader, map[int]json.RawMessage, error) {
	f, err := os.Open(path)
	if err != nil {
		return checkpointHeader{}, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return checkpointHeader{}, nil, fmt.Errorf("serve: checkpoint %s: empty", path)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Key == "" {
		return checkpointHeader{}, nil, fmt.Errorf("serve: checkpoint %s: bad header", path)
	}
	rows := map[int]json.RawMessage{}
	for sc.Scan() {
		var ln checkpointLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil || ln.Row == nil {
			break // torn tail: everything before it stands
		}
		if ln.Point < 0 || ln.Point >= hdr.Points {
			continue
		}
		if _, ok := rows[ln.Point]; !ok {
			// Copy out of the scanner's reused buffer.
			rows[ln.Point] = append(json.RawMessage(nil), ln.Row...)
		}
	}
	return hdr, rows, nil
}
