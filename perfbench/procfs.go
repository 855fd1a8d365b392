package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseVmHWM returns the peak resident set size, in kB, from the contents
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for line := range strings.Lines(status) {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", strings.TrimSpace(line))
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// parseStatCPU returns user plus system CPU time, in clock ticks, from the
// contents of /proc/<pid>/stat.  The command name (field 2) may hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return utime + stime, nil
}

// procUsage is a process's CPU time and peak RSS at one instant.
type procUsage struct {
	cpuTicks int64
	hwmKB    int64
}

// readProcUsage samples a live process's counters from /proc.
func readProcUsage(pid int) (procUsage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procUsage{}, err
	}
	cpu, err := parseStatCPU(string(stat))
	if err != nil {
		return procUsage{}, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	hwm, err := parseVmHWM(string(status))
	if err != nil {
		return procUsage{}, fmt.Errorf("/proc/%d/status: %w", pid, err)
	}
	return procUsage{cpuTicks: cpu, hwmKB: hwm}, nil
}
