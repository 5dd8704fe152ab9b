package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp is the environment and seed record every result carries: a
// number is only comparable to another taken with the same core count,
// Go version, code and inputs.
type stamp struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Params     map[string]any `json:"params"`
}

func newStamp(name string, seed uint64, seconds int, traced bool, commit string, params map[string]any) stamp {
	return stamp{
		Workload:   name,
		Traced:     traced,
		Seed:       seed,
		Seconds:    seconds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
		SourceHash: sourceHash("."),
		Params:     params,
	}
}

// sourceHash digests every go.mod and .go file under root (skipping
// dot-directories such as the build directory), so a result names the
// exact code it measured even where no commit is known.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
