package attack

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/wear"
)

// TestRTACellReportsFailedPA: the registry's rta cells name the line the
// attack wore out — the bank's first failure — for every shadow model.
func TestRTACellReportsFailedPA(t *testing.T) {
	a, err := registry.Default.Attack("rta")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rbsg", "security-refresh", "two-level-sr"} {
		s, err := registry.Default.Scheme(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := registry.Config{Lines: 1024, Endurance: 3000, Seed: 1}
		if s.Defaults != nil {
			cfg = s.Defaults(cfg)
		}
		if cfg, err = a.Prepare(s, cfg); err != nil {
			t.Fatal(err)
		}
		inst, err := s.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := wear.MustNewController(pcm.Config{
			LineBytes: 256, Endurance: cfg.Endurance, Timing: cfg.Device().Timing,
		}, inst)
		res, err := a.RunExact(&registry.Env{
			Cfg: cfg, Scheme: s, Attack: a, Instance: inst, Controller: ctrl, Target: ctrl,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, _, ok := ctrl.Bank().FirstFailure()
		if !res.Failed || !ok {
			t.Fatalf("%s: the RTA should wear out a line (result failed=%v, bank failed=%v)", name, res.Failed, ok)
		}
		if res.FailedPA != pa {
			t.Errorf("%s: cell reports failed PA %d, bank's first failure is PA %d", name, res.FailedPA, pa)
		}
	}
}
