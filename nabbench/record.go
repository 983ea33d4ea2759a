package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtm "runtime/metrics"
	"sort"
	"strings"
	"time"
)

// record is one history line: the result plus what produced it.
type record struct {
	Time       string         `json:"time"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	GitCommit  string         `json:"git_commit,omitempty"`
	SourceHash string         `json:"source_sha256"`
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Result     *outcome       `json:"result"`
	Extra      map[string]any `json:"extra,omitempty"`
}

func newRecord(workload string, seed int64, seconds, trace int, out *outcome, extra map[string]any) *record {
	return &record{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GitCommit:  gitCommit("."),
		SourceHash: sourceHash("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Result:     out,
		Extra:      extra,
	}
}

// appendHistory appends rec as one JSON line; existing lines are never
// rewritten.
func appendHistory(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exactKeys are model figures that must repeat exactly across runs of
// one seed on one source tree: a difference is a correctness violation.
var exactKeys = []string{
	"model_bound_frac",
	"model.phase1_tu_per_inst",
	"model.equality_tu_per_inst",
	"model.flag_tu_per_inst",
}

// countKeys are counts read at the transport that are expected to
// repeat exactly; a difference is reported as a warning, since frame
// counts are not part of the broadcast's correctness.
var countKeys = []string{
	"transport.bits_per_inst",
	"transport.data_frames_per_inst",
	"transport.markers_per_inst",
}

// checkRepeats compares rec's exact figures and bit digest with the
// latest earlier record of the same source, workload, seed and mode:
// a differing model figure or digest marks rec incorrect, a differing
// count adds a warning.
func checkRepeats(path string, rec *record) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	var prev *record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Result == nil {
			continue
		}
		if r.SourceHash == rec.SourceHash && r.Workload == rec.Workload && r.Seed == rec.Seed &&
			r.Trace == rec.Trace && r.Result.Correct {
			prev = &r
		}
	}
	if prev == nil {
		return
	}
	differ := func(keys []string) []string {
		var out []string
		for _, k := range keys {
			a, aok := prev.Result.Metrics[k]
			b, bok := rec.Result.Metrics[k]
			if aok && bok && a.Value != b.Value {
				out = append(out, k)
			}
		}
		return out
	}
	diffs := differ(exactKeys)
	if a, b := prev.Extra["bits_digest"], rec.Extra["bits_digest"]; a != nil && b != nil && a != b {
		diffs = append(diffs, "bits_digest")
	}
	if len(diffs) > 0 {
		rec.Result.Correct = false
		rec.Result.Failed++
		rec.Extra["repeat_violation"] = "differs from the run of " + prev.Time + ": " + strings.Join(diffs, ", ")
	}
	if w := differ(countKeys); len(w) > 0 {
		rec.Extra["repeat_warning"] = "differs from the run of " + prev.Time + ": " + strings.Join(w, ", ")
	}
}

// gitCommit reads HEAD from a .git directory under root without running
// git; empty outside a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}

// sourceHash digests the Go sources and module files under root, so a
// record identifies the code it measured even outside a repository.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") || d.Name() == "history" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// goMetrics is the Go runtime's allocation and GC accounting.
type goMetrics struct {
	allocs, bytes, gcCPU, totalCPU float64
}

func readGoMetrics() goMetrics {
	s := []rtm.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtm.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtm.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtm.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goMetrics{allocs: v(0), bytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}
