package memrouter

import (
	"testing"
	"time"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/memserver"
	"securityrbsg/internal/rbsg"
)

// The router exists to scale serving — never to blunt (or sharpen) the
// side channel. This test reruns the paper's Remapping Timing Attack
// through a real 3-shard router and pins wire-level equivalence: the
// attacker recovers the identical physical-neighbor sequence at the
// identical write cost as a direct connection to the shard, because
// the blocked bank-group map lands the attacked region wholly on one
// shard with unchanged local lines, and per-op latencies merge back
// into their original slots unmodified.

// rtaShardConfig mirrors memserver's RTA geometry: single bank, 256
// lines, plain RBSG, low endurance so the wear-out phase completes.
func rtaShardConfig(seed uint64) memserver.Config {
	return memserver.Config{
		Banks: 1, Lines: 256, Scheme: memserver.SchemeRBSG,
		Regions: 8, Interval: 4, Seed: seed,
		Endurance: 500, QueueDepth: 64, SnapshotEvery: 1,
	}
}

// metricsOracle polls memctld_failed_lines through an HTTP control
// plane — the shard's own, or the router's aggregated passthrough —
// every `every` calls (memserver's wireOracle shape).
func metricsOracle(c *memserver.Client, every int) func() bool {
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

// groundTruth reads the recovered-sequence answer off the scheme
// internals the attacker never saw (attack_test.go's helper, restated
// here because test helpers do not export).
func groundTruth(s *rbsg.Scheme, li uint64, k int) []uint64 {
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
		t.Fatalf("attack through the router: %v", err)
	}
	return a, res
}

func TestRouterRTAMatchesDirect(t *testing.T) {
	// Direct leg: attack one shard over its own binary listener.
	ds, dbin, dctl := startShard(t, rtaShardConfig(5))
	dc, err := memserver.DialBinary(dbin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	da, dres := runRTA(t, dc, metricsOracle(memserver.NewClient("http://"+dctl), 64))
	if !dres.Failed && dres.Writes == 0 {
		t.Fatal("direct attack issued no writes")
	}

	// Routed leg: the identical shard (same seed) is shard 0 of a
	// 3-shard deployment; the attacker talks only to the router, and
	// its oracle reads only the router's aggregated metrics.
	rs, rbin, rctl := startShard(t, rtaShardConfig(5))
	var addrs, ctls []string
	addrs, ctls = append(addrs, rbin), append(ctls, rctl)
	for i := 1; i < 3; i++ {
		_, bin, ctl := startShard(t, rtaShardConfig(uint64(5+i)))
		addrs, ctls = append(addrs, bin), append(ctls, ctl)
	}
	_, rc, routerCtl := startRouter(t, Config{
		Shards: addrs, ShardControl: ctls,
		Lines: 768, Groups: 3, GroupMap: []int{0, 1, 2},
		Conns: 2, Window: 8,
		HealthEvery: 100 * time.Millisecond,
	})
	ra, rres := runRTA(t, rc, metricsOracle(memserver.NewClient("http://"+routerCtl), 64))

	// The recovered sequence must be the ground truth of shard 0's
	// scheme — in LOCAL line space, which the blocked map made equal to
	// the logical space the attacker addressed.
	scheme := rs.Memory().Bank(0).Scheme().(*rbsg.Scheme)
	want := groundTruth(scheme, 17, 6)
	got := ra.Sequence()
	if len(got) < len(want) {
		t.Fatalf("recovered %d addresses through the router, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d through the router, ground truth %d (got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}

	// Both schemes are identically seeded, so the direct leg's ground
	// truth is the same sequence — and the attack cost must match
	// exactly, phase by phase: the router added no writes, dropped no
	// writes, and left every latency byte-identical.
	dScheme := ds.Memory().Bank(0).Scheme().(*rbsg.Scheme)
	dWant := groundTruth(dScheme, 17, 6)
	for i := range want {
		if want[i] != dWant[i] {
			t.Fatalf("twin shards disagree on ground truth at %d: %v vs %v", i, want, dWant)
		}
	}
	if dres.Writes != rres.Writes ||
		da.AlignmentWrites != ra.AlignmentWrites ||
		da.DetectionWrites != ra.DetectionWrites ||
		da.WearWrites != ra.WearWrites {
		t.Fatalf("router changed the attack cost: direct writes=%d (align %d, detect %d, wear %d), routed writes=%d (align %d, detect %d, wear %d)",
			dres.Writes, da.AlignmentWrites, da.DetectionWrites, da.WearWrites,
			rres.Writes, ra.AlignmentWrites, ra.DetectionWrites, ra.WearWrites)
	}

	// The untouched shards must be untouched: the attack stream never
	// leaked across the map.
	for _, ctl := range ctls[1:] {
		m, err := memserver.NewClient("http://" + ctl).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m["memctld_demand_writes_total"] != 0 || m["memctld_demand_reads_total"] != 0 {
			t.Fatalf("attack traffic leaked onto an unaddressed shard (%s): %v writes, %v reads",
				ctl, m["memctld_demand_writes_total"], m["memctld_demand_reads_total"])
		}
	}
	// Pin the absolute cost too, so a drift shared by both legs fails.
	if rres.Writes != 3647 || ra.AlignmentWrites != 316 || ra.DetectionWrites != 2840 || ra.WearWrites != 491 {
		t.Fatalf("router RTA cost %d writes (align %d, detect %d, wear %d), want 3647 (align 316, detect 2840, wear 491)",
			rres.Writes, ra.AlignmentWrites, ra.DetectionWrites, ra.WearWrites)
	}
}
