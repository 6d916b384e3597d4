package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every result so two runs can be compared
// only when they ran on the same kind of machine and build.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(workload string, seed int64) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOAMD64:    "unset",
		Commit:     "unknown",
		Workload:   workload,
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				env.GOAMD64 = s.Value
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && env.Commit != "unknown" {
			env.Commit += "+dirty"
		}
	}
	return env
}

// cpuModel is the first "model name" in /proc/cpuinfo.
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

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the process's VmHWM at its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostTicks reads the machine-wide busy and stolen CPU ticks from
// /proc/stat; stolen ticks are time the hypervisor ran something else
// while this machine wanted the CPU.
func hostTicks() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = n
		default:
			busy += n
		}
	}
	return busy, steal
}

// stealShare is the share of CPU time the hypervisor withheld between
// two hostTicks readings, as a percentage of busy plus stolen time.
func stealShare(busy0, steal0, busy1, steal1 uint64) float64 {
	b, s := busy1-busy0, steal1-steal0
	if b+s == 0 {
		return 0
	}
	return 100 * float64(s) / float64(b+s)
}

// goCounters are the runtime's cumulative allocation and GC counters.
type goCounters struct {
	AllocBytes uint64
	GCCycles   uint64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goCounters{AllocBytes: s[0].Value.Uint64(), GCCycles: s[1].Value.Uint64()}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{AllocBytes: c.AllocBytes - o.AllocBytes, GCCycles: c.GCCycles - o.GCCycles}
}
