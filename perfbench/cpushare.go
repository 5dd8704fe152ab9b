package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// modules are the repository's internal packages, the layers a CPU
// sample is credited to. A sample whose stack holds none of them is
// credited to "runtime" (GC, scheduler, the benchmark's own code); one
// whose innermost repository frame is in a package missing from this
// list is credited to "unlisted", so the shares always sum to 1.
var modules = []string{
	"analysis", "audit", "capture", "certs", "ciphers", "clock", "cloud",
	"coord", "core", "dataset", "device", "driver", "fault", "fingerprint",
	"fleet", "guard", "mitm", "netem", "pool", "probe", "report",
	"rootstore", "serve", "telemetry", "tlssim", "trace", "traffic", "wire",
}

const modulePrefix = "repro/internal/"

// cpuShares runs `go tool pprof -traces` over the CPU profiles (pprof
// merges them) and returns each layer's share of the sampled CPU time.
func cpuShares(profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no CPU profile was taken")
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byLayer, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	return layerShares(byLayer)
}

// layerShares turns per-layer CPU time into shares covering every
// listed module plus "runtime" and "unlisted".
func layerShares(byLayer map[string]time.Duration) (map[string]float64, error) {
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	if total <= 0 {
		return nil, fmt.Errorf("the CPU profiles hold no samples")
	}
	shares := map[string]float64{"runtime": 0, "unlisted": 0}
	for _, m := range modules {
		shares[m] = 0
	}
	for layer, d := range byLayer {
		if _, ok := shares[layer]; !ok {
			layer = "unlisted"
		}
		shares[layer] += float64(d) / float64(total)
	}
	return shares, nil
}

// parseTraces reads `go tool pprof -traces` output and credits each
// sample's value to the innermost repro/internal/<module> frame of its
// stack (stacks are printed innermost first), or to "runtime" when the
// stack has no such frame.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	const separator = "-----------+"
	out := map[string]time.Duration{}
	var (
		inBlock bool
		value   time.Duration
		layer   string
		haveVal bool
	)
	flush := func() {
		if haveVal {
			if layer == "" {
				layer = "runtime"
			}
			out[layer] += value
		}
		value, layer, haveVal = 0, "", false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasSuffix(fields[0], ":") {
			continue // a sample label line ("key:  value")
		}
		var frame string
		if line[0] != ' ' || len(line) < 10 || strings.TrimSpace(line[:10]) != "" {
			// First line of a stack: "<value>   <innermost frame>".
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed line %q", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value in %q: %v", line, err)
			}
			value, haveVal = v, true
			frame = fields[1]
		} else {
			frame = fields[0]
		}
		if layer == "" {
			layer = moduleOf(frame)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// moduleOf maps a frame such as "repro/internal/certs.(*Certificate).seal"
// to "certs"; frames outside repro/internal map to "".
func moduleOf(frame string) string {
	if !strings.HasPrefix(frame, modulePrefix) {
		return ""
	}
	rest := frame[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
