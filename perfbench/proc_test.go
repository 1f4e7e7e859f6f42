package main

import (
	"os"
	"testing"
)

func TestParseStatCPUCountsFromLastParen(t *testing.T) {
	// A command name holding spaces and a ')' must not shift the fields.
	line := "4242 (mem ctl) d) S 1 4242 4242 0 -1 4194560 120 0 0 0 731 86 0 0 20 0 9 0 1000 0 0\n"
	u, s, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if u != 731 || s != 86 {
		t.Fatalf("utime %d stime %d, want 731 86", u, s)
	}
}

func TestParseStatCPURejectsShortLines(t *testing.T) {
	for _, line := range []string{"", "1 (x S 1", "1 (x) S 1 2 3"} {
		if _, _, err := parseStatCPU([]byte(line)); err == nil {
			t.Errorf("parseStatCPU(%q) gave no error", line)
		}
	}
}

func TestParseKeyedIOAndStatus(t *testing.T) {
	io := "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n"
	m, err := parseKeyed([]byte(io), ':')
	if err != nil {
		t.Fatal(err)
	}
	if m["syscr"] != 9 || m["syscw"] != 4 {
		t.Fatalf("io parsed %v", m)
	}
	status := "Name:\tmemctld\nState:\tS (sleeping)\nVmHWM:\t   9856 kB\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t3\n"
	m, err = parseKeyed([]byte(status), ':')
	if err != nil {
		t.Fatal(err)
	}
	if m["VmHWM"] != 9856 || m["voluntary_ctxt_switches"] != 17 || m["nonvoluntary_ctxt_switches"] != 3 {
		t.Fatalf("status parsed %v", m)
	}
	if _, ok := m["Name"]; ok {
		t.Fatal("non-numeric field Name kept")
	}
	if _, err := parseKeyed([]byte("Name:\tx\n"), ':'); err == nil {
		t.Fatal("no error for a file without numeric fields")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if s.HWMkB == 0 || s.CtxSw == 0 || s.Syscalls == 0 {
		t.Fatalf("implausible sample of this process: %+v", s)
	}
	d := s.sub(procSample{CPUNs: 1, Syscalls: 1, CtxSw: 1, HWMkB: 5})
	if d.HWMkB != s.HWMkB || d.Syscalls != s.Syscalls-1 {
		t.Fatalf("sub: %+v from %+v", d, s)
	}
}
