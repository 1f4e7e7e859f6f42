package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every architecture Go supports on
// Linux.
const clockTicks = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	CPUNs    uint64 // user+sys CPU of every thread, in ns (10 ms resolution)
	Syscalls uint64 // read-type plus write-type system calls (syscr+syscw)
	CtxSw    uint64 // voluntary plus involuntary context switches, summed over live threads
	HWMkB    uint64 // peak resident set (VmHWM)
}

// sub returns the counter growth from earlier to s. HWMkB is a peak, so
// it keeps s's value.
func (s procSample) sub(earlier procSample) procSample {
	return procSample{
		CPUNs:    s.CPUNs - earlier.CPUNs,
		Syscalls: s.Syscalls - earlier.Syscalls,
		CtxSw:    s.CtxSw - earlier.CtxSw,
		HWMkB:    s.HWMkB,
	}
}

// add sums two samples (used to total a set of processes).
func (s procSample) add(o procSample) procSample {
	return procSample{
		CPUNs:    s.CPUNs + o.CPUNs,
		Syscalls: s.Syscalls + o.Syscalls,
		CtxSw:    s.CtxSw + o.CtxSw,
		HWMkB:    s.HWMkB + o.HWMkB,
	}
}

// readProc samples /proc/<pid>/{stat,io,status} and the status file of
// every thread under /proc/<pid>/task.
func readProc(pid int) (procSample, error) {
	dir := fmt.Sprintf("/proc/%d", pid)
	var s procSample
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	user, sys, err := parseStatCPU(b)
	if err != nil {
		return s, fmt.Errorf("%s/stat: %w", dir, err)
	}
	s.CPUNs = (user + sys) * (1e9 / clockTicks)

	if b, err = os.ReadFile(dir + "/io"); err != nil {
		return s, err
	}
	io, err := parseKeyed(b, ':')
	if err != nil {
		return s, fmt.Errorf("%s/io: %w", dir, err)
	}
	s.Syscalls = io["syscr"] + io["syscw"]

	if b, err = os.ReadFile(dir + "/status"); err != nil {
		return s, err
	}
	st, err := parseKeyed(b, ':')
	if err != nil {
		return s, fmt.Errorf("%s/status: %w", dir, err)
	}
	s.HWMkB = st["VmHWM"]

	// Context switches are per thread; the process's own status file
	// reports only its main thread.
	tasks, err := filepath.Glob(dir + "/task/*/status")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ts, err := parseKeyed(b, ':')
		if err != nil {
			return s, fmt.Errorf("%s: %w", t, err)
		}
		s.CtxSw += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// parseStatCPU extracts utime and stime (fields 14 and 15, in clock
// ticks) from a /proc/<pid>/stat line. The command name in field 2 may
// hold spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("no command-name terminator")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("%d fields after the command name, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(string(f[11]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("utime: %w", err)
	}
	if stime, err = strconv.ParseUint(string(f[12]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("stime: %w", err)
	}
	return utime, stime, nil
}

// parseKeyed parses "key<sep> value [unit]" lines, as in
// /proc/<pid>/io and /proc/<pid>/status, keeping the keys whose first
// value field is a whole number.
func parseKeyed(b []byte, sep byte) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		k, v, ok := bytes.Cut(line, []byte{sep})
		if !ok {
			continue
		}
		f := bytes.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			continue // a non-numeric field such as Name or State
		}
		out[string(bytes.TrimSpace(k))] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no numeric fields")
	}
	return out, nil
}
