package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// l3Bytes is the size of the last-level (L3) cache as the kernel reports
// it in sysfs — the figure lscpu prints — or 0 when it is not known.
func l3Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "3" {
			continue
		}
		size, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

// gitDescribe names the commit under test, or "none" outside a git work
// tree. The search for a repository stops at the working directory, so a
// checkout nested in some other repository is not mistaken for it.
func gitDescribe() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// provenance is printed with every result.
func provenance() string {
	gmp := os.Getenv("GOMAXPROCS")
	if gmp == "" {
		gmp = "unset"
	}
	return "nproc=" + strconv.Itoa(runtime.NumCPU()) +
		" gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)) + " (env " + gmp + ")" +
		" go=" + runtime.Version() +
		" git=" + gitDescribe() +
		" l3=" + strconv.FormatInt(l3Bytes()>>20, 10) + "MiB"
}
