package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// outcome is the deterministic result of one repetition: what the
// correctness gate compares.
type outcome struct {
	end       float64 // simulated end time, or makespan; summed over points on sweep-campaign
	completed int     // completed activities or tasks
	digest    uint64  // FNV-1a over every finish time (per-point records on sweep-campaign)
	report    uint64  // FNV-1a of the campaign reports minus their perf subtrees; 0 when not produced
}

func (o outcome) String() string {
	s := fmt.Sprintf("end=%#016x (%g) completed=%d digest=%#016x", math.Float64bits(o.end), o.end, o.completed, o.digest)
	if o.report != 0 {
		s += fmt.Sprintf(" report=%#016x", o.report)
	}
	return s
}

// matches compares bit for bit. The report digest is compared only
// when both sides carry one: traced sweep repetitions replay the grid
// point by point and produce no report.
func (o outcome) matches(want outcome) error {
	if math.Float64bits(o.end) != math.Float64bits(want.end) || o.completed != want.completed || o.digest != want.digest {
		return fmt.Errorf("got %s, want %s", o, want)
	}
	if o.report != 0 && want.report != 0 && o.report != want.report {
		return fmt.Errorf("campaign report digest %#016x, want %#016x", o.report, want.report)
	}
	return nil
}

// pinnedSeed is the default seed, whose outcome is pinned below.
const pinnedSeed = 1

// pinned holds each workload's outcome at pinnedSeed, from the code
// this benchmark was written against. Other seeds are checked against
// the invariants each workload asserts and against the run's own first
// repetition.
var pinned = map[string]outcome{
	"msg-pairs":       {end: math.Float64frombits(0x40046d411639b3cc), completed: 200000, digest: 0xdba497a163693989},
	"msg-contended":   {end: math.Float64frombits(0x4032d050ea48db8a), completed: 14400, digest: 0x39b1d60843696f30},
	"simdag-workflow": {end: math.Float64frombits(0x4058f36e105de2b2), completed: 17866, digest: 0x8f4d11bf7d7eb461},
	"sweep-campaign":  {end: math.Float64frombits(0x40ba2e9096ff9478), completed: 49664, digest: 0xeec9b9392927c7bb, report: 0xac6c6f79e53e896f},
}

// digest accumulates an FNV-1a hash of float64 bit patterns and ints.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	for i := range d.buf {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// fingerprint describes the machine and the code a result came from.
func fingerprint() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit(), sourceDigest())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the module's Go sources under the working
// directory, which identifies the code even where no VCS revision is
// available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
