package attack

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"securityrbsg/internal/core"
	"securityrbsg/internal/exactsim"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"
)

// plainTarget hides a controller's BatchTarget capability, forcing the
// attacks onto their write-by-write loops.
type plainTarget struct{ c *wear.Controller }

func (p plainTarget) Write(la uint64, c pcm.Content) uint64 { return p.c.Write(la, c) }
func (p plainTarget) Read(la uint64) (pcm.Content, uint64)  { return p.c.Read(la) }

// goldenRTACase builds one pinned RTA run against the given target
// wrapper and renders every attacker-visible outcome as one line.
type goldenRTACase struct {
	name      string
	endurance uint64
	scheme    func() wear.Scheme
	run       func(t Target, oracle func() bool) string
}

func goldenRTACases() []goldenRTACase {
	rbsgRun := func(lines, regions, interval, seqLen, maxWrites uint64) func(Target, func() bool) string {
		return func(t Target, oracle func() bool) string {
			a := &RTARBSG{
				Target: t, Lines: lines, Regions: regions, Interval: interval,
				Li: 17, SeqLen: seqLen, MaxWrites: maxWrites, Oracle: oracle,
			}
			res, err := a.Run()
			return fmt.Sprintf("%s err=%v align=%d detect=%d wear=%d seq=%v",
				renderResult(res), err, a.AlignmentWrites, a.DetectionWrites, a.WearWrites, a.Sequence())
		}
	}
	srRun := func(maxWrites uint64) func(Target, func() bool) string {
		return func(t Target, oracle func() bool) string {
			a := &RTASR{Target: t, Lines: 256, Interval: 32, Li: 33, MaxWrites: maxWrites, Oracle: oracle}
			res, err := a.Run()
			return fmt.Sprintf("%s err=%v align=%d detect=%d wear=%d rounds=%d ds=%v",
				renderResult(res), err, a.AlignWrites, a.DetectWrites, a.WearWrites, a.RoundsSeen, a.RecoveredDs)
		}
	}
	twoLevelRun := func(maxWrites uint64) func(Target, func() bool) string {
		return func(t Target, oracle func() bool) string {
			a := &RTATwoLevelSRExact{
				Target: t, Lines: 1024, Regions: 8, InnerInterval: 4, OuterInterval: 8,
				MaxWrites: maxWrites, Oracle: oracle,
			}
			res, err := a.Run()
			return fmt.Sprintf("%s err=%v detect=%d flood=%d rounds=%d highds=%v",
				renderResult(res), err, a.DetectWrites, a.FloodWrites, a.Rounds, a.RecoveredHighDs)
		}
	}
	return []goldenRTACase{
		{
			name: "rbsg-256", endurance: 500,
			scheme: func() wear.Scheme {
				return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 5})
			},
			run: rbsgRun(256, 8, 4, 6, 0),
		},
		{
			// The budget expires mid-wear: exercises the batched clamp.
			name: "rbsg-256-budget", endurance: 500,
			scheme: func() wear.Scheme {
				return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 5})
			},
			run: rbsgRun(256, 8, 4, 6, 3500),
		},
		{
			name: "security-rbsg-256-budget", endurance: 2000,
			scheme: func() wear.Scheme {
				return core.MustNew(core.Config{
					Lines: 256, Regions: 8, InnerInterval: 4,
					OuterInterval: 8, Stages: 4, Seed: 8,
				})
			},
			run: rbsgRun(256, 8, 4, 31, 400_000),
		},
		{
			name: "sr-256", endurance: 12000,
			scheme: func() wear.Scheme { return secref.MustNewOneLevel(256, 32, 0, nil) },
			run:    srRun(0),
		},
		{
			name: "sr-256-budget", endurance: 12000,
			scheme: func() wear.Scheme { return secref.MustNewOneLevel(256, 32, 0, nil) },
			run:    srRun(20_001),
		},
		{
			name: "two-level-sr-1024", endurance: 6000,
			scheme: func() wear.Scheme {
				return secref.MustNewTwoLevel(secref.TwoLevelConfig{
					Lines: 1024, Regions: 8, InnerInterval: 4, OuterInterval: 8, Seed: 12,
				})
			},
			run: twoLevelRun(0),
		},
		{
			name: "two-level-sr-1024-budget", endurance: 6000,
			scheme: func() wear.Scheme {
				return secref.MustNewTwoLevel(secref.TwoLevelConfig{
					Lines: 1024, Regions: 8, InnerInterval: 4, OuterInterval: 8, Seed: 12,
				})
			},
			run: twoLevelRun(300_001),
		},
	}
}

func renderResult(r Result) string {
	return fmt.Sprintf("writes=%d ns=%d failed=%v", r.Writes, r.AttackNs, r.Failed)
}

// TestRTAGolden pins every RTA's exact outcome — write count, observed
// time, failure, phase diagnostics and recovered secrets — against
// testdata/rta_golden.txt, over both the write-by-write target and the
// exact tier's batched FastTarget. Any change to the attack drivers
// must leave this table byte-for-byte identical.
func TestRTAGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rta_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tc := range goldenRTACases() {
		var lines []string
		for _, target := range []func(*wear.Controller) Target{
			func(c *wear.Controller) Target { return plainTarget{c} },
			func(c *wear.Controller) Target { return exactsim.NewFastTarget(c, 2) },
		} {
			c := wear.MustNewController(bankCfg(tc.endurance), tc.scheme())
			line := tc.run(target(c), func() bool { return c.Bank().Failed() })
			failPA := "-"
			if pa, _, ok := c.Bank().FirstFailure(); ok {
				failPA = fmt.Sprint(pa)
			}
			lines = append(lines, fmt.Sprintf("%s firstfail=%s %s", tc.name, failPA, line))
		}
		if lines[0] != lines[1] {
			t.Errorf("%s: targets diverge:\n plain %s\n fast  %s", tc.name, lines[0], lines[1])
		}
		fmt.Fprintln(&got, lines[1])
	}
	if got.String() != string(want) {
		t.Fatalf("RTA outcomes drifted from testdata/rta_golden.txt:\n got:\n%s want:\n%s", got.String(), want)
	}
}
