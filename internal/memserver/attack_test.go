package memserver

import (
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/stats"
)

// The tests in this file guard the property the whole paper rests on:
// the SET/RESET timing side channel must survive the service layer.
// If serialization, batching, or queueing ever flattened or perturbed
// per-request simulated latency, the repo would silently stop modeling
// the attack surface it exists to study.

// TestWireTimingSignalSurvives checks the two ends of the side channel
// byte-for-byte over a real binary protocol round trip: an ALL-0 write
// costs the RESET pulse, an ALL-1 write the SET pulse.
func TestWireTimingSignalSurvives(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone // no remapping noise: pure device timing
	_, c := startServer(t, cfg)

	if ns := c.Write(8, pcm.Zeros); ns != pcm.DefaultTiming.ResetNs {
		t.Fatalf("ALL-0 write: %d ns over the wire, want RESET %d", ns, pcm.DefaultTiming.ResetNs)
	}
	if ns := c.Write(8, pcm.Ones); ns != pcm.DefaultTiming.SetNs {
		t.Fatalf("ALL-1 write: %d ns over the wire, want SET %d", ns, pcm.DefaultTiming.SetNs)
	}
	if _, ns := c.Read(8); ns != pcm.DefaultTiming.ReadNs {
		t.Fatalf("read: %d ns over the wire, want %d", ns, pcm.DefaultTiming.ReadNs)
	}
}

// wireOracle polls /metrics for failed lines every few writes — the
// attacker-side stop condition, built from public telemetry only.
func wireOracle(c *Client, every int) func() bool {
	calls := 0
	failed := false
	return func() bool {
		if failed {
			return true
		}
		calls++
		if calls%every != 0 {
			return false
		}
		m, err := c.Metrics()
		if err != nil {
			return false
		}
		failed = m["memctld_failed_lines"] > 0
		return failed
	}
}

// rtaConfig is the single-bank RTA geometry of the wire-level attack
// tests.
func rtaConfig() Config {
	return Config{
		Banks: 1, Lines: 256, Scheme: SchemeRBSG,
		Regions: 8, Interval: 4, Seed: 5,
		Endurance: 500, QueueDepth: 64, SnapshotEvery: 1,
	}
}

// runRTA drives the paper's RTA against target, with oracle polling
// the server's own telemetry.
func runRTA(t *testing.T, target attack.Target, oracle func() bool) (*attack.RTARBSG, attack.Result) {
	t.Helper()
	a := &attack.RTARBSG{
		Target: target,
		Lines:  256, Regions: 8, Interval: 4,
		Li:     17,
		SeqLen: 6,
		Oracle: oracle,
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("attack over the wire: %v", err)
	}
	return a, res
}

// checkWireRTACost pins the wire-level RTA's write cost at the 256-line
// configuration: 3647 writes in all (align 316, detect 2840, wear 491).
// The count is a pure function of the served latencies, so any drift
// means a serving or attack change altered the side channel.
func checkWireRTACost(t *testing.T, via string, a *attack.RTARBSG, res attack.Result) {
	t.Helper()
	if res.Writes != 3647 || a.AlignmentWrites != 316 || a.DetectionWrites != 2840 || a.WearWrites != 491 {
		t.Fatalf("%s RTA cost %d writes (align %d, detect %d, wear %d), want 3647 (align 316, detect 2840, wear 491)",
			via, res.Writes, a.AlignmentWrites, a.DetectionWrites, a.WearWrites)
	}
}

// TestWireRTARecoversSequence runs the paper's Remapping Timing Attack
// from internal/attack, unmodified, over the binary listener: the
// small-scale RTA aligns, recovers the physical-neighbor sequence bit
// by bit from served latencies, and wears out a line — proof the
// service layer cannot silently flatten the channel. The oracle
// (failed-lines telemetry) polls the HTTP control plane, which stays
// up alongside the binary listener — exactly the split memctld
// deploys.
func TestWireRTARecoversSequence(t *testing.T) {
	s, c := startServer(t, rtaConfig())
	ctl := startControl(t, s)
	a, res := runRTA(t, c, wireOracle(ctl, 64))
	if !res.Failed && res.Writes == 0 {
		t.Fatal("attack issued no writes")
	}

	// Ground truth from scheme internals the attacker never saw. The
	// randomizer is static, so reading it after the run is exact while
	// the actor still owns the scheme: nothing below mutates it.
	scheme := s.Memory().Bank(0).Scheme().(*rbsg.Scheme)
	want := groundTruthSequence(scheme, 17, 6)
	got := a.Sequence()
	if len(got) < len(want) {
		t.Fatalf("recovered %d addresses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d over the wire, ground truth %d (got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}

	// The device must actually have failed, and telemetry must say so.
	m, err := ctl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_failed_lines"] == 0 {
		t.Fatal("wear-out phase did not register a failed line in /metrics")
	}
	checkWireRTACost(t, "wire", a, res)
}

// groundTruthSequence mirrors the helper in internal/attack's tests:
// the true logical addresses physically preceding Li, from the static
// randomizer the attacker never sees.
func groundTruthSequence(s *rbsg.Scheme, li uint64, k int) []uint64 {
	n := s.LinesPerRegion()
	ia := s.Intermediate(li)
	region, off := ia/n, ia%n
	out := make([]uint64, 0, k)
	for i := 1; i <= k; i++ {
		prev := (off + n - uint64(i)%n) % n
		out = append(out, s.Randomizer().Decrypt(region*n+prev))
	}
	return out
}

// TestWireDetectorAlarms drives the two traffic shapes the acceptance
// criteria name through batch frames: the detector must stay quiet
// under uniform traffic and alarm under the repeated-address shape.
func TestWireDetectorAlarms(t *testing.T) {
	// Uniform: every region gets ≈1/R of the traffic, no alarm.
	quietServer, quiet := startServer(t, testConfig())
	rng := stats.NewRNG(11)
	ops := make([]BatchOp, 256)
	for round := 0; round < 40; round++ {
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: 2}
		}
		if _, err := quiet.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	m := drainedMetrics(t, quietServer)
	if m["memctld_detector_alarms_total"] != 0 {
		t.Fatalf("uniform traffic raised %v alarms", m["memctld_detector_alarms_total"])
	}

	// Attack-shaped: hammer one line; its region sees ~100% share.
	noisyServer, noisy := startServer(t, testConfig())
	for i := range ops {
		ops[i] = BatchOp{Line: 0, Data: 1}
	}
	for round := 0; round < 40; round++ {
		if _, err := noisy.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	m = drainedMetrics(t, noisyServer)
	if m["memctld_detector_alarms_total"] == 0 {
		t.Fatal("attack-shaped traffic raised no detector alarm")
	}
	if m["memctld_detector_boosted_moves_total"] == 0 {
		t.Fatal("alarm did not boost the remapping rate")
	}
}
