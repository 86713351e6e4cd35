package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 for every architecture the
// benchmark runs on.
const clockTick = 10 * time.Millisecond

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so the
// fields are counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	// After ')': state is field 3, utime field 14, stime field 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// memStatus is the memory fields of /proc/<pid>/status the benchmark
// reads, in bytes.
type memStatus struct {
	RSS int64 // VmRSS: resident set now
	HWM int64 // VmHWM: peak resident set
}

// parseStatus extracts VmRSS and VmHWM from /proc/<pid>/status.
func parseStatus(b []byte) (memStatus, error) {
	var st memStatus
	var seen int
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || (name != "VmRSS" && name != "VmHWM") {
			continue
		}
		f := strings.Fields(val)
		if len(f) != 2 || f[1] != "kB" {
			return st, fmt.Errorf("proc status: malformed %s line %q", name, line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return st, fmt.Errorf("proc status %s: %w", name, err)
		}
		if name == "VmRSS" {
			st.RSS = kb << 10
		} else {
			st.HWM = kb << 10
		}
		seen++
	}
	if seen != 2 {
		return st, fmt.Errorf("proc status: VmRSS/VmHWM missing")
	}
	return st, nil
}

// procCPU reads a process's cumulative CPU time (user + system).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procMem reads a process's resident-set figures.
func procMem(pid int) (memStatus, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return memStatus{}, err
	}
	return parseStatus(b)
}

// selfCPU returns this process's cumulative CPU time (user + system):
// the load generator's own cost, reported apart from the gateway's.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
