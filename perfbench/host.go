package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strings"
	"time"
)

// host identifies the machine a run measured. It is printed with every
// run as a diagnostic, so a shift in the figures can be told apart from
// a shift in the host; it never enters a metric.
type host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	// ProbeMs is the median time of a fixed pure-Go loop, measured when
	// the run starts and again when it ends.
	ProbeMs    float64 `json:"probe_ms"`
	ProbeEndMs float64 `json:"probe_end_ms"`
}

func fingerprint() host {
	return host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc:     runtime.NumCPU(),
		CPUModel:  cpuModel(),
		GoVersion: runtime.Version(),
		ProbeMs:   speedProbe(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeSink keeps the probe loop's result live.
var probeSink uint64

// speedProbe times a fixed integer loop (2^24 xorshift steps, about
// 20 ms on a current core) five times and returns the median in ms.
func speedProbe() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for j := 0; j < 1<<24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
		ts[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ts)
}
