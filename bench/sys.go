package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probe is one reading of the process-wide meters a measured window is
// bracketed by: wall clock, user+system CPU, and heap allocation count.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	sys     time.Duration // the system share of cpu
	mallocs uint64
	csw     int64 // voluntary context switches
}

// takeProbe reads the meters. ReadMemStats stops the world for tens of
// microseconds, so it is only ever called at window edges.
func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := probe{wall: time.Now(), mallocs: ms.Mallocs}
	p.cpu, p.sys, p.csw = rusage()
	return p
}

// rusage returns the process's user+system CPU time, the system share of
// it, and its voluntary context switches; zeros where getrusage fails.
func rusage() (cpu, sys time.Duration, csw int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	sys = time.Duration(ru.Stime.Nano())
	return time.Duration(ru.Utime.Nano()) + sys, sys, ru.Nvcsw
}

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	cpu, _, _ := rusage()
	return cpu
}

// usage is what the process consumed between two probes.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	sys     time.Duration
	mallocs uint64
	csw     int64
}

// since returns what was consumed from a to p.
func (p probe) since(a probe) usage {
	return usage{wall: p.wall.Sub(a.wall), cpu: p.cpu - a.cpu, sys: p.sys - a.sys, mallocs: p.mallocs - a.mallocs, csw: p.csw - a.csw}
}

// String renders the usage for the diagnostics line.
func (u usage) String() string {
	return fmt.Sprintf("wall %.2fs, cpu %.2fs (%.0f%% system), %d voluntary context switches",
		u.wall.Seconds(), u.cpu.Seconds(), 100*u.sys.Seconds()/u.cpu.Seconds(), u.csw)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, falling back to getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// machine is the fingerprint recorded next to every set of numbers, so a
// timing is never compared across hosts by accident.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() machine {
	m := machine{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}
