package main

import (
	"os"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmemdep-server\nVmPeak:\t 2345 kB\nVmHWM:\t  1526308 kB\nVmRSS:\t  1400000 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 1526308 {
		t.Errorf("parseVmHWM = %d, %v; want 1526308", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (odd) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 1234 567 0 0 20 0 8 0 100 0 0\n"
	if got, err := parseStatCPU(stat); err != nil || got != 1234+567 {
		t.Errorf("parseStatCPU = %d, %v; want %d", got, err, 1234+567)
	}
	for _, bad := range []string{"4242 no command S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 4242 4242 0 -1 4194304 100 0 0 0 u 567 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestReadProcUsageOfSelf(t *testing.T) {
	u, err := readProcUsage(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if u.hwmKB <= 0 || u.cpuTicks < 0 {
		t.Errorf("implausible usage %+v", u)
	}
}
