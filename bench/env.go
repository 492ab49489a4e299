package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every output so a number can be placed.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	StealShare float64 `json:"steal_share"`
	Dropped    int     `json:"rounds_dropped"`
}

func readEnvironment(seed int64) environment {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return environment{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     strings.TrimSpace(string(kernel)),
		Commit:     gitCommit(),
		Seed:       seed,
	}
}

// gitCommit reads the checked-out commit from .git without running git; an
// exported checkout that is not a repository reads as "unknown". Only the
// working directory (and its parent for a run started inside bench/) is
// looked at, so nothing outside the checkout is read.
func gitCommit() string {
	dirs := []string{"."}
	if wd, err := os.Getwd(); err == nil && filepath.Base(wd) == "bench" {
		dirs = append(dirs, "..")
	}
	for _, dir := range dirs {
		git := filepath.Join(dir, ".git")
		head, err := os.ReadFile(filepath.Join(git, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPU returns zeros where /proc/stat is missing, which reads as no steal.
func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the share of CPU time the hypervisor withheld between a and b.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
