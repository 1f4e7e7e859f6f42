package memserver

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/seclevel"
)

// The binary protocol exists to make the hot path fast — never to
// change what crosses it. The wire tests in attack_test.go and
// adaptive_test.go check the side-channel regressions over single-op
// frames; these check what only the frame layer can break: per-op
// latencies inside one coalesced frame, and attack outcomes that must
// equal, write for write, the same attack run in-process against
// membank.Memory of a never-started, identically seeded server.

// TestBinaryTimingSignalSurvives: the two ends of the side channel,
// byte-for-byte, for ops coalesced into one batch frame and one
// streaming read frame — coalescing must not smear one op's latency
// into another's.
func TestBinaryTimingSignalSurvives(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNone // no remapping noise: pure device timing
	_, c := startServer(t, cfg)

	tm := pcm.DefaultTiming
	ops := []BatchOp{
		{Line: 8, Data: uint8(pcm.Zeros)},
		{Line: 8, Data: uint8(pcm.Ones)},
		{Line: 8, Read: true},
		{Line: 9, Data: uint8(pcm.Ones)},
		{Line: 9, Data: uint8(pcm.Zeros)},
	}
	want := []uint64{tm.ResetNs, tm.SetNs, tm.ReadNs, tm.SetNs, tm.ResetNs}
	resp, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if resp.Ns[i] != w {
			t.Fatalf("op %d (%+v): %d ns inside a batch frame, want %d (all: %v)", i, ops[i], resp.Ns[i], w, resp.Ns)
		}
	}
	if resp.Data[2] != uint8(pcm.Ones) {
		t.Fatalf("read inside the frame returned %d, want ALL-1", resp.Data[2])
	}

	rr, err := c.ReadBatch([]uint64{8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Applied != 2 || rr.NsSum != 2*tm.ReadNs || rr.NsMax != tm.ReadNs {
		t.Fatalf("read frame accounting %d applied, sum %d max %d; want 2, %d, %d",
			rr.Applied, rr.NsSum, rr.NsMax, 2*tm.ReadNs, tm.ReadNs)
	}
	if rr.Data[0] != uint8(pcm.Ones) || rr.Data[1] != uint8(pcm.Zeros) {
		t.Fatalf("read frame data %v, want [ALL-1 ALL-0]", rr.Data)
	}
}

// memoryOracle is wireOracle's in-process twin: it polls the memory's
// failed state at the same cadence, so an attack driven through it
// stops at the same write as one polling /metrics.
func memoryOracle(s *Server, every int) func() bool {
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
		_, _, failed = s.Memory().Failed()
		return failed
	}
}

// TestBinaryRTARecoversSequence pins transport equivalence for the
// paper's RTA: the attack served over the binary listener must cost
// exactly the writes, phase by phase, and recover exactly the sequence
// of the same attack run in-process against an identically seeded
// memory. The servers are deterministic given the op stream and the
// attacker is deterministic given the latencies, so any difference is
// the transport altering the side channel.
func TestBinaryRTARecoversSequence(t *testing.T) {
	s, c := startServer(t, rtaConfig())
	ba, bres := runRTA(t, c, wireOracle(startControl(t, s), 64))

	ref := MustNew(rtaConfig()) // actors never started: driven directly
	ma, mres := runRTA(t, ref.Memory(), memoryOracle(ref, 64))

	if bres.Writes != mres.Writes || bres.Failed != mres.Failed ||
		ba.AlignmentWrites != ma.AlignmentWrites ||
		ba.DetectionWrites != ma.DetectionWrites ||
		ba.WearWrites != ma.WearWrites {
		t.Fatalf("transport changed the attack cost: binary writes=%d failed=%v (align %d, detect %d, wear %d), memory writes=%d failed=%v (align %d, detect %d, wear %d)",
			bres.Writes, bres.Failed, ba.AlignmentWrites, ba.DetectionWrites, ba.WearWrites,
			mres.Writes, mres.Failed, ma.AlignmentWrites, ma.DetectionWrites, ma.WearWrites)
	}
	bs, ms := ba.Sequence(), ma.Sequence()
	if len(bs) != len(ms) {
		t.Fatalf("binary recovered %v, memory recovered %v", bs, ms)
	}
	for i := range bs {
		if bs[i] != ms[i] {
			t.Fatalf("sequence[%d]: binary %d, memory %d (binary %v memory %v)", i, bs[i], ms[i], bs, ms)
		}
	}
	checkWireRTACost(t, "binary", ba, bres)
}

// TestBinaryAdaptiveEscalates: the detector-driven level controller
// sees hammering served in 256-op batch frames exactly as it sees the
// same writes applied one at a time to an identically seeded memory —
// the same escalations, level, alarms and per-frame latency sums.
func TestBinaryAdaptiveEscalates(t *testing.T) {
	s, c := startServer(t, adaptiveConfig())
	ref := MustNew(adaptiveConfig()) // actors never started: driven directly
	mem := ref.Memory()

	ops := make([]BatchOp, 256)
	for i := range ops {
		ops[i] = BatchOp{Line: 13, Data: 2}
	}
	for round := 0; round < 80; round++ {
		resp, err := c.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		var nsSum uint64
		for _, o := range ops {
			nsSum += mem.Write(o.Line, pcm.Content(o.Data))
		}
		if resp.NsSum != nsSum {
			t.Fatalf("round %d: served frame cost %d ns, memory %d ns", round, resp.NsSum, nsSum)
		}
	}

	m := drainedMetrics(t, s)
	if m["memctld_level_raises_total"] == 0 {
		t.Fatalf("binary hammer stream applied no escalation:\n%s", s.MetricsText())
	}
	if m["memctld_security_level"] <= 4 {
		t.Fatalf("security level %v under binary hammering, want above the boot level 4", m["memctld_security_level"])
	}
	if m["memctld_detector_alarms_total"] == 0 {
		t.Fatal("monitor registered no alarm under the binary hammer")
	}

	a := mem.Bank(0).Scheme().(*seclevel.Adaptive)
	want := map[string]float64{
		"memctld_level_raises_total":    float64(a.Controller().Raises()),
		"memctld_level_lowers_total":    float64(a.Controller().Lowers()),
		"memctld_security_level":        float64(a.Level()),
		"memctld_detector_alarms_total": float64(a.Monitor().Alarms()),
	}
	for name, w := range want {
		if m[name] != w {
			t.Errorf("%s: served %v, memory %v", name, m[name], w)
		}
	}
}
