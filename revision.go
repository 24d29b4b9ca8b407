// Package repro is the module root. It names the engine: Revision hashes
// the module's own Go source, embedded in every binary that links it, so
// the campaign server's artifact cache keys change whenever the code that
// computes an artifact does.
package repro

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"path"
	"runtime"
	"strings"
	"sync"
)

// source is the module's tree as it was built: this package's files and
// the internal and cmd trees. Only go.mod and the non-test Go files
// outside testdata/ are hashed; the rest is embedded because a directory
// pattern takes the whole subtree.
//
//go:embed go.mod *.go internal cmd
var source embed.FS

var revision = sync.OnceValue(func() string { return revisionOf(source) })

// Revision is the engine revision: the hex SHA-256 of every non-test Go
// file outside testdata/ (in walk order, each with its path), go.mod and
// the Go toolchain version. It is computed once per process.
func Revision() string { return revision() }

// revisionOf hashes the engine files of fsys and the toolchain version.
func revisionOf(fsys fs.FS) string {
	h := sha256.New()
	for _, name := range engineFiles(fsys) {
		b, err := fs.ReadFile(fsys, name)
		if err != nil {
			panic(fmt.Sprintf("repro: revision: %v", err))
		}
		fmt.Fprintf(h, "%s\x00%d\x00%s", name, len(b), b)
	}
	fmt.Fprintf(h, "go\x00%s", runtime.Version())
	return hex.EncodeToString(h.Sum(nil))
}

// engineFiles lists the files of fsys that Revision hashes, in
// fs.WalkDir's lexical order: go.mod and every .go file that is not a
// _test.go file and does not lie under a testdata directory.
func engineFiles(fsys fs.FS) []string {
	var out []string
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return fs.SkipDir
		case d.IsDir():
			return nil
		case name == "go.mod",
			path.Ext(name) == ".go" && !strings.HasSuffix(name, "_test.go"):
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("repro: revision: %v", err))
	}
	return out
}
