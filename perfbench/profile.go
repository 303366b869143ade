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

// modules are the internal packages the ledger reports a CPU share for.
// Other internal packages and the root package are charged to "other",
// the benchmark's own code to "bench", and samples with no frame of this
// repository (GC workers, the scheduler) to "gc".
var modules = map[string]bool{
	"workload": true, "rng": true, "des": true, "node": true, "procmgr": true,
	"sda": true, "task": true, "sim": true, "trace": true, "scenario": true,
	"analysis": true, "obs": true, "core": true,
}

// foldProfile folds a CPU profile with the toolchain's pprof and returns
// each module's share of the samples and the sample count.
func foldProfile(path string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output() // Output waits for pprof to exit.
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces reads the output of `pprof -traces` and charges each sample
// to the innermost frame that belongs to this repository, so standard
// library work (strconv, sha256, math/rand, malloc) counts against the
// module that called it. It returns the share of sample time per module
// and the number of samples.
func foldTraces(r io.Reader) (map[string]float64, int, error) {
	by := map[string]time.Duration{}
	var total time.Duration
	samples := 0
	var (
		inRecord bool          // between separators, after the value line
		value    time.Duration // the current record's sample time
		owner    string        // module of its innermost repository frame
	)
	flush := func() {
		if !inRecord {
			return
		}
		if owner == "" {
			owner = "gc"
		}
		by[owner] += value
		total += value
		samples++
		inRecord, owner = false, ""
	}
	seenSeparator := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			seenSeparator = true
			continue
		}
		if !seenSeparator || strings.TrimSpace(line) == "" {
			continue // header
		}
		frame := strings.TrimSpace(line)
		if !inRecord {
			fields := strings.Fields(frame)
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			inRecord, value = true, d
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		if owner == "" {
			owner = moduleOf(strings.TrimSuffix(frame, " (inline)"))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for m, d := range by {
		shares[m] = float64(d) / float64(total)
	}
	return shares, samples, nil
}

// moduleOf names the ledger module a frame's function belongs to, or ""
// for code outside this repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 && modules[rest[:i]] {
			return rest[:i]
		}
		return "other"
	case strings.HasPrefix(fn, "repro."):
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}
