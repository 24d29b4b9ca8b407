package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fabricver"
)

// digests pins the program's outputs, so a run that prints different
// bytes fails its checks. -update regenerates them on purpose.
type digests struct {
	Paper map[string]string `json:"paper"` // cmd/paper command line -> sha256 of its stdout
	Certs map[string]string `json:"certs"` // spec -> sha256 of its MarshalCertificate output
}

func digestsPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "digests.json")
}

func loadDigests(root string) (digests, error) {
	var d digests
	b, err := os.ReadFile(digestsPath(root))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", digestsPath(root), err)
	}
	return d, nil
}

func paperKey(args []string) string {
	return strings.Join(append([]string{"paper"}, args...), " ")
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// updateDigests recomputes every pinned digest from the current program.
func updateDigests(root, build string) error {
	bin, err := buildPaper(root, build)
	if err != nil {
		return err
	}
	d := digests{Paper: map[string]string{}, Certs: map[string]string{}}
	for _, sz := range []string{"default", "smoke"} {
		s, err := sizesFor(sz)
		if err != nil {
			return err
		}
		c, err := runChild(root, bin, s.PaperArgs...)
		if err != nil {
			return err
		}
		d.Paper[paperKey(s.PaperArgs)] = sha(c.out)
	}
	for _, spec := range certSpecs() {
		cert, err := fabricver.VerifySpec(spec, fabricver.Options{})
		if err != nil {
			return err
		}
		b, err := fabricver.MarshalCertificate(cert)
		if err != nil {
			return err
		}
		d.Certs[spec] = sha(b)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath(root), append(b, '\n'), 0o644)
}
