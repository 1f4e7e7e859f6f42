package memserver

import (
	"net/http/httptest"
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
)

// The binary protocol exists to make the hot path fast — never to
// change what crosses it. These tests rerun the repo's side-channel
// regressions over the binary listener: the SET/RESET timing signal,
// the paper's Remapping Timing Attack, and the adaptive defense's
// escalate-before-recovery property must all behave exactly as they do
// over JSON, because the banks (and the latencies they emit) cannot
// tell the transports apart.

// TestBinaryTimingSignalSurvives: the two ends of the side channel,
// byte-for-byte, over a real binary-protocol round trip.
func TestBinaryTimingSignalSurvives(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone // no remapping noise: pure device timing
	_, c, _ := startBinaryServer(t, cfg)

	if ns := c.Write(8, pcm.Zeros); ns != pcm.DefaultTiming.ResetNs {
		t.Fatalf("ALL-0 write: %d ns over the binary wire, want RESET %d", ns, pcm.DefaultTiming.ResetNs)
	}
	if ns := c.Write(8, pcm.Ones); ns != pcm.DefaultTiming.SetNs {
		t.Fatalf("ALL-1 write: %d ns over the binary wire, want SET %d", ns, pcm.DefaultTiming.SetNs)
	}
	if _, ns := c.Read(8); ns != pcm.DefaultTiming.ReadNs {
		t.Fatalf("read: %d ns over the binary wire, want %d", ns, pcm.DefaultTiming.ReadNs)
	}
}

// rtaConfig is the single-bank RTA geometry shared with the JSON wire
// test (attack_test.go).
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
// The count is a pure function of the serialized latencies, so any drift
// means a transport or attack change altered the side channel.
func checkWireRTACost(t *testing.T, via string, a *attack.RTARBSG, res attack.Result) {
	t.Helper()
	if res.Writes != 3647 || a.AlignmentWrites != 316 || a.DetectionWrites != 2840 || a.WearWrites != 491 {
		t.Fatalf("%s RTA cost %d writes (align %d, detect %d, wear %d), want 3647 (align 316, detect 2840, wear 491)",
			via, res.Writes, a.AlignmentWrites, a.DetectionWrites, a.WearWrites)
	}
}

// TestBinaryRTARecoversSequence runs the RTA over the binary listener
// and then pins transport equivalence: a second, identically seeded
// server attacked over JSON must cost the attacker exactly the same
// number of writes in every phase — the per-op latencies, and with
// them the whole side channel, are serialization-independent.
func TestBinaryRTARecoversSequence(t *testing.T) {
	// Binary transport. The oracle (failed-lines telemetry) polls the
	// HTTP control plane, which stays up alongside the binary listener —
	// exactly the split memctld deploys.
	s, bc, _ := startBinaryServer(t, rtaConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	mc := NewClient(ts.URL)
	ba, bres := runRTA(t, bc, wireOracle(mc, 64))
	if !bres.Failed && bres.Writes == 0 {
		t.Fatal("attack issued no writes")
	}

	// Ground truth from the scheme internals the attacker never saw
	// (static randomizer; safe to read — nothing below mutates it).
	scheme := s.Memory().Bank(0).Scheme().(*rbsg.Scheme)
	want := groundTruthSequence(scheme, 17, 6)
	got := ba.Sequence()
	if len(got) < len(want) {
		t.Fatalf("recovered %d addresses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d over the binary wire, ground truth %d (got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}
	m, err := mc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["memctld_failed_lines"] == 0 {
		t.Fatal("wear-out phase did not register a failed line in /metrics")
	}

	// JSON transport, identical seed: the servers are deterministic
	// given the op stream, and the attacker is deterministic given the
	// latencies, so every phase's write count must match exactly.
	_, jc := startServer(t, rtaConfig())
	ja, jres := runRTA(t, jc, wireOracle(jc, 64))
	if bres.Writes != jres.Writes ||
		ba.AlignmentWrites != ja.AlignmentWrites ||
		ba.DetectionWrites != ja.DetectionWrites ||
		ba.WearWrites != ja.WearWrites {
		t.Fatalf("transport changed the attack cost: binary writes=%d (align %d, detect %d, wear %d), json writes=%d (align %d, detect %d, wear %d)",
			bres.Writes, ba.AlignmentWrites, ba.DetectionWrites, ba.WearWrites,
			jres.Writes, ja.AlignmentWrites, ja.DetectionWrites, ja.WearWrites)
	}
	checkWireRTACost(t, "binary", ba, bres)
}

// TestBinaryAdaptiveEscalates: the detector-driven level controller
// sees binary-transport hammering exactly as it sees JSON hammering.
func TestBinaryAdaptiveEscalates(t *testing.T) {
	s, c, _ := startBinaryServer(t, adaptiveConfig())
	ops := make([]BatchOp, 256)
	for i := range ops {
		ops[i] = BatchOp{Line: 13, Data: 2}
	}
	for round := 0; round < 80; round++ {
		if _, err := c.Batch(ops); err != nil {
			t.Fatal(err)
		}
	}
	m := ParseMetrics(s.MetricsText())
	if m["memctld_level_raises_total"] == 0 {
		t.Fatalf("binary hammer stream applied no escalation:\n%s", s.MetricsText())
	}
	if m["memctld_security_level"] <= 4 {
		t.Fatalf("security level %v under binary-transport attack, want above the boot level 4", m["memctld_security_level"])
	}
	if m["memctld_detector_alarms_total"] == 0 {
		t.Fatal("monitor registered no alarm under the binary hammer")
	}
}
