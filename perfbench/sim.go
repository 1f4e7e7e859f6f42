package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"

	_ "securityrbsg/internal/plugins"
)

// The sim-exact geometry: every cell and every fleet bank is one
// simulated bank of simLines lines with simEndurance write endurance.
const (
	simLines     = 1 << 14
	simEndurance = 100000
	// simCellSeed seeds every matrix cell. The cells are pinned, not
	// drawn from --seed: an attack's length depends on the keys it
	// faces (one seed ends security-rbsg/rta after 2·10^4 writes, another
	// after 10^8), so seeded cells would make the matrix's work, not the
	// code's speed, set matrix_s.
	simCellSeed = 1
	// fleetBanks is the number of independently keyed banks built per
	// cell for the frame phase: one per measured block.
	fleetBanks = measureBlocks
	// simFramesPerSec fixes the frame phase's frame count per --seconds.
	simFramesPerSec = 25000
)

// simCell is one exact-tier cell and its pinned outcome at simCellSeed:
// whether the attack wore a line out, and after how many writes it
// stopped. RTA must break rbsg and two-level-sr; against security-rbsg
// and srbsg-adaptive it runs out of budget and the defense holds.
type simCell struct {
	scheme, attack string
	failed         bool
	writes         uint64
}

var simCells = []simCell{
	{"rbsg", "rta", true, 1083050},
	{"rbsg", "bpa", true, 26520382},
	{"two-level-sr", "rta", true, 5972046},
	{"two-level-sr", "bpa", true, 884485607},
	{"security-rbsg", "rta", false, 104857600},
	{"security-rbsg", "bpa", true, 1021489154},
	{"srbsg-adaptive", "rta", false, 104857600},
	{"srbsg-adaptive", "bpa", true, 989778386},
}

// buildFleet constructs fleetBanks banks for every cell, each exactly as
// RunExact builds a cell's bank (scheme defaults, the attack's
// preparation, the scheme with its Feistel tables, the simulated PCM
// bank) and keyed from the workload seed. Bank k of cell c sits at
// k*len(simCells)+c.
func buildFleet(seed uint64) ([]*wear.Controller, error) {
	fleet := make([]*wear.Controller, 0, len(simCells)*fleetBanks)
	for k := 0; k < fleetBanks; k++ {
		for _, c := range simCells {
			s, err := registry.Default.Scheme(c.scheme)
			if err != nil {
				return nil, err
			}
			a, err := registry.Default.Attack(c.attack)
			if err != nil {
				return nil, err
			}
			cfg := registry.Config{
				Lines: simLines, Endurance: simEndurance, Workers: 1,
				Seed: connSeed(seed, len(fleet)),
			}
			if s.Defaults != nil {
				cfg = s.Defaults(cfg)
			}
			if a.Prepare != nil {
				if cfg, err = a.Prepare(s, cfg); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", c.scheme, c.attack, err)
				}
			}
			inst, err := s.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.scheme, err)
			}
			ctrl, err := wear.NewController(pcm.Config{
				LineBytes: 256, Endurance: cfg.Endurance, Timing: cfg.Timing,
			}, inst)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.scheme, err)
			}
			fleet = append(fleet, ctrl)
		}
	}
	return fleet, nil
}

// cpuNs is this process's user+sys CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runSim is the sim-exact workload, all on one goroutine: build the
// fleet setupRounds times, play fixed write and read frames into the
// last fleet's controllers, then play the eight pinned cells in a
// seed-chosen order and check each outcome.
func runSim(rc runConfig, out *outcome) error {
	runtime.GOMAXPROCS(1)
	var setups []float64
	var fleet []*wear.Controller
	for r := 0; r < setupRounds; r++ {
		fleet = nil // let the collection below free the previous round's fleet
		runtime.GC()
		t0 := time.Now()
		f, err := buildFleet(rc.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fleet = f
	}

	// Frame phase: block k plays an equal run of frames into bank k of
	// every cell in turn, so each bank's working set stays in cache while
	// it is played and every block does the same mix of work. One frame
	// in four reads lines back and checks them against the shadow.
	epoch := time.Now()
	tr := newTracer(rc.trace, epoch)
	rng := stats.NewRNG(connSeed(rc.seed, 0))
	f := newFrame()
	sh := newShadow(simLines)
	var mismatches int64
	var firstMismatch string
	var bs []block
	var ops int64
	frames := rc.seconds * simFramesPerSec
	perBank := frames / len(fleet)
	for k := 0; k < fleetBanks; k++ {
		blk := block{}
		cpu0, t0 := cpuNs(), time.Now()
		for c := range simCells {
			ctrl := fleet[k*len(simCells)+c]
			clear(sh.content)
			for i := 0; i < perBank; i++ {
				f.read = i%4 == 3
				for j := range f.lines {
					f.lines[j] = rng.Uint64n(simLines)
					f.content[j] = uint8(rng.Uint64n(3))
				}
				root := tr.begin("client.frame", -1, len(f.lines))
				ft := time.Now()
				if f.read {
					s := tr.begin("wear.Controller.Read", root, len(f.lines))
					for j, l := range f.lines {
						got, _ := ctrl.Read(l)
						f.content[j] = uint8(got)
					}
					tr.end(s)
				} else {
					s := tr.begin("wear.Controller.Write", root, len(f.lines))
					for j, l := range f.lines {
						ctrl.Write(l, pcm.Content(f.content[j]))
					}
					tr.end(s)
				}
				lat := float64(time.Since(ft).Nanoseconds()) / 1e3
				for j, l := range f.lines {
					if !f.read {
						sh.wrote(l, f.content[j])
					} else if err := sh.check(l, f.content[j]); err != nil {
						if mismatches++; firstMismatch == "" {
							firstMismatch = fmt.Sprintf("%s bank %d: %v", simCells[c].scheme, k, err)
						}
					}
				}
				tr.end(root)
				if f.read {
					blk.read = append(blk.read, lat)
				} else {
					blk.write = append(blk.write, lat)
				}
				blk.ops += int64(len(f.lines))
			}
		}
		blk.wall, blk.cpuNs = time.Since(t0), float64(cpuNs()-cpu0)
		ops += blk.ops
		bs = append(bs, blk)
	}
	out.attempted += ops
	if mismatches > 0 {
		out.fail("%d fleet reads disagreed with the shadow; first: %s", mismatches, firstMismatch)
	}

	// The matrix: eight cells, one after another, in seed-chosen order.
	order := make([]int, len(simCells))
	stats.NewRNG(connSeed(rc.seed, 1)).Perm(order)
	matrix := tr.begin("sim.matrix", -1, 0)
	var matrixS float64
	var simWrites uint64
	for _, i := range order {
		c := simCells[i]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := tr.begin("registry.RunExact", matrix, 0)
		t0 := time.Now()
		res, err := registry.Default.RunExact(c.scheme, c.attack, registry.Config{
			Lines: simLines, Endurance: simEndurance, Seed: simCellSeed, Workers: 1,
		})
		dt := time.Since(t0).Seconds()
		tr.end(s)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.scheme, c.attack, err)
		}
		matrixS += dt
		simWrites += res.Result.Writes
		out.attempted++
		if res.Result.Failed != c.failed || res.Result.Writes != c.writes {
			out.failed++
			out.fail("%s/%s: failed=%v after %d writes, pinned failed=%v after %d",
				c.scheme, c.attack, res.Result.Failed, res.Result.Writes, c.failed, c.writes)
		}
		key := c.scheme + "." + c.attack
		out.layers["registry.cell_s."+key] = dt
		out.layers["registry.allocs."+key] = float64(m1.Mallocs - m0.Mallocs)
	}
	tr.end(matrix)

	self, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	out.e2e = blockMedians(bs)
	out.e2e["matrix_s"] = matrixS
	out.e2e["setup_s"] = median(setups)
	out.e2e["rss_peak_mb"] = float64(self.HWMkB) / 1024
	out.note("fleet of %d banks, %d frames each, one block per bank of each cell; %s; matrix %d simulated writes",
		len(fleet), perBank, describeBlocks(bs), simWrites)
	if !rc.trace {
		return nil
	}

	l := out.layers
	writeNs, writeOps, _ := tr.total("wear.Controller.Write")
	readNs, readOps, _ := tr.total("wear.Controller.Read")
	l["wear.write_ns"] = float64(writeNs) / float64(writeOps)
	l["wear.read_ns"] = float64(readNs) / float64(readOps)
	l["wear.remap_moves_per_kwrite"] = remapPerKWrite(fleet)
	l["client.self_ns_per_op"] = float64(tr.selfTotal("client.frame")) / float64(ops)
	l["exactsim.sim_writes_per_s"] = float64(simWrites) / matrixS
	if err := tr.write(filepath.Join(rc.work, "spans-"+rc.workload+".jsonl")); err != nil {
		return err
	}
	// The kernels at the cells' bank size, fed the frame phase's lines.
	rng = stats.NewRNG(connSeed(rc.seed, 0))
	locals := make([]uint64, kernelOps)
	contents := make([]uint8, kernelOps)
	for k := range locals {
		locals[k], contents[k] = rng.Uint64n(simLines), uint8(rng.Uint64n(3))
	}
	return probeKernels(simLines, locals, contents, out)
}

// remapPerKWrite is the device writes remapping added per thousand
// demand writes, over a set of banks.
func remapPerKWrite(banks []*wear.Controller) float64 {
	var demand, device uint64
	for _, b := range banks {
		st := b.Stats()
		demand += st.DemandWrites
		device += st.DeviceWrites
	}
	if demand == 0 {
		return 0
	}
	return 1000 * float64(device-demand) / float64(demand)
}
