// Command perfbench is the IoTLS reproduction's benchmark: one closed
// loop that runs a named workload against the public Go API (core,
// dataset, coord), gates every operation's output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics and a
// CPU profile split by module. See README.md for the workload table,
// the metric map and how a claim is stated and checked.
//
// Usage, from the root of the repository (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper_study --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed (the fleet seed of fleet_stream)")
	seconds := flag.Int("seconds", 20, "how long the timed loop measures")
	traced := flag.Int("trace", 0, "1: run the traced per-layer pass instead of the end-to-end pass")
	commit := flag.String("commit", "unknown", "source commit, recorded in the stamp")
	workRoot := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for datasets and profiles")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	if err := run(*name, *seed, *seconds, *traced == 1, *commit, *workRoot); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, commit, workRoot string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		work:    work,
		pins:    pins,
		nproc:   runtime.NumCPU(),
	}
	var res *result
	var params map[string]any
	if traced {
		res, params, err = runTraced(wl, cfg)
	} else {
		res, params, err = runEndToEnd(wl, cfg)
	}
	if err != nil {
		return err
	}

	printHuman(newStamp(name, seed, seconds, traced, commit, params), res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printHuman writes the stamp and one "name value unit" line per
// metric ahead of the machine-read final line.
func printHuman(st stamp, res *result) {
	b, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", b)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
}
