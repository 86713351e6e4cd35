package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (raptrack (serve) x) S 1 4242 4242 0 -1 4194560 1180 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 325 * clockTick; got != want {
		t.Errorf("utime+stime = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 (x) S 1 2", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ten 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\traptrack\nVmPeak:\t 2000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t    1024 kB\nThreads:\t9\n"
	st, err := parseStatus([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if st.RSS != 1024<<10 || st.HWM != 1536<<10 {
		t.Errorf("got %+v, want RSS 1 MiB, HWM 1.5 MiB", st)
	}
	if _, err := parseStatus([]byte("Name:\tx\nVmRSS:\t12 kB\n")); err == nil {
		t.Error("parseStatus accepted a status without VmHWM")
	}
	if _, err := parseStatus([]byte("VmRSS:\t12 MB\nVmHWM:\t12 kB\n")); err == nil {
		t.Error("parseStatus accepted a non-kB unit")
	}
}

// TestProcSelf reads this test process's own /proc entries.
func TestProcSelf(t *testing.T) {
	busy := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(busy) {
	}
	cpu, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 {
		t.Errorf("own CPU time = %v after a busy loop", cpu)
	}
	st, err := procMem(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if st.RSS <= 0 || st.HWM < st.RSS {
		t.Errorf("own memory = %+v", st)
	}
}
