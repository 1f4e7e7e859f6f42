package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"securityrbsg/internal/memserver"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// frameOps is the number of line ops in every frame the benchmark sends.
const frameOps = 256

// setupRounds is how many times a run sets its topology up; setup_s is
// the median, and the last topology serves the load.
const setupRounds = 9

// daemonSeed seeds every memctld's bank keys. It is fixed: the workload
// seed shapes only the frames, so the daemons receive nothing but them.
const daemonSeed = 1

// frame is one batch a load connection sends: a write frame (lines and
// the content class written to each) or a streaming read frame.
type frame struct {
	read    bool
	lines   []uint64
	content []uint8
}

func newFrame() frame {
	return frame{lines: make([]uint64, frameOps), content: make([]uint8, frameOps)}
}

// serveSpec describes a serving workload: its topology and its frames.
type serveSpec struct {
	shards     int // memctld processes; more than one puts memrouterd in front
	scheme     string
	banks      int    // per shard
	shardLines uint64 // per shard
	// framesPerSec is the nominal closed-loop frame rate of one
	// connection on the reference host. The frame count of a run is
	// fixed from it and --seconds, never from a clock, so every run of a
	// seed does identical work.
	framesPerSec int
	// source returns connection conn's frame generator.
	source func(seed uint64, conn int) func(*frame)
}

func (s serveSpec) lines() uint64 { return uint64(s.shards) * s.shardLines }

// serveRouter: benign uniform traffic through memrouterd over two
// shards. Connection c owns the lines whose bit 18 equals c, so each
// connection touches both shards and every bank, and reads only lines
// it alone writes. One frame in four is a streaming read frame.
var serveRouter = serveSpec{
	shards: 2, scheme: memserver.SchemeSecurityRBSG, banks: 8, shardLines: 1 << 19,
	framesPerSec: 2400,
	source: func(seed uint64, conn int) func(*frame) {
		const owner = 1 << 18
		rng := stats.NewRNG(connSeed(seed, conn))
		i := 0
		return func(f *frame) {
			f.read = i%4 == 3
			i++
			for k := range f.lines {
				f.lines[k] = rng.Uint64n(2<<19)&^owner | uint64(conn)*owner
				if !f.read {
					f.content[k] = uint8(rng.Uint64n(3))
				}
			}
		}
	},
}

// serveAttack: the paper's repeated-address attack, every write ALL-1 to
// line 0, straight to one memctld running the adaptive security level.
// One frame in four reads seeded lines of the attacked bank (bank 0): a
// co-located reader, which sees what the attack's remap work costs.
// Every connection writes line 0 with the same content, so each one's
// shadow stays exact.
var serveAttack = serveSpec{
	shards: 1, scheme: memserver.SchemeAdaptive, banks: 8, shardLines: 1 << 16,
	framesPerSec: 10000,
	source: func(seed uint64, conn int) func(*frame) {
		rng := stats.NewRNG(connSeed(seed, conn))
		i := 0
		return func(f *frame) {
			f.read = i%4 == 3
			i++
			for k := range f.lines {
				if f.read {
					f.lines[k] = 8 * rng.Uint64n(1<<13) // bank 0 of 8
					continue
				}
				f.lines[k], f.content[k] = 0, uint8(pcm.Ones)
			}
		}
	},
}

// connSeed derives the seed of generator stream conn (a load connection,
// or another seeded stream of the run) from the run seed.
func connSeed(seed uint64, conn int) uint64 {
	return (seed+1)*0x9e3779b97f4a7c15 ^ uint64(conn+1)*0xbf58476d1ce4e5b9
}

// topology is the set of daemons one set-up launched.
type topology struct {
	shards []*daemon
	router *daemon // nil when load goes straight to a single memctld
}

// front is the daemon the load connections dial.
func (t *topology) front() *daemon {
	if t.router != nil {
		return t.router
	}
	return t.shards[0]
}

// launch starts the workload's daemons and returns once the topology is
// ready: every shard's /healthz passes and, with a router, the router's
// /healthz passes with every shard. It reports the set-up time and each
// shard's boot time (launch to its own /healthz).
func launch(spec serveSpec, binDir, work string) (*topology, float64, []float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	t := &topology{}
	for i := 0; i < spec.shards; i++ {
		d, err := startDaemon(work, filepath.Join(binDir, "memctld"), fmt.Sprintf("shard%d", i),
			"-scheme", spec.scheme, "-banks", fmt.Sprint(spec.banks),
			"-lines", fmt.Sprint(spec.shardLines), "-seed", fmt.Sprint(daemonSeed))
		if err != nil {
			return nil, 0, nil, err
		}
		t.shards = append(t.shards, d)
	}
	boots := make([]float64, len(t.shards))
	for i, d := range t.shards {
		if err := d.awaitAddrs(ctx); err != nil {
			return nil, 0, nil, err
		}
		if err := d.awaitHealthy(ctx); err != nil {
			return nil, 0, nil, err
		}
		boots[i] = time.Since(t0).Seconds()
	}
	if spec.shards > 1 {
		var bins, ctls, groups []string
		for i, d := range t.shards {
			bins, ctls = append(bins, d.bin), append(ctls, d.ctl)
			groups = append(groups, fmt.Sprint(i))
		}
		r, err := startDaemon(work, filepath.Join(binDir, "memrouterd"), "router",
			"-shards", strings.Join(bins, ","), "-shard-control", strings.Join(ctls, ","),
			"-lines", fmt.Sprint(spec.lines()), "-group-map", strings.Join(groups, ","))
		if err != nil {
			return nil, 0, nil, err
		}
		t.router = r
		if err := r.awaitAddrs(ctx); err != nil {
			return nil, 0, nil, err
		}
		if err := r.awaitHealthy(ctx); err != nil {
			return nil, 0, nil, err
		}
	}
	return t, time.Since(t0).Seconds(), boots, nil
}

// stop drains the topology router first, since the router's in-flight
// frames need live shards, and reports any unclean exit.
func (t *topology) stop() error {
	var errs []error
	if t.router != nil {
		errs = append(errs, t.router.stop(15*time.Second))
	}
	for _, d := range t.shards {
		errs = append(errs, d.stop(15*time.Second))
	}
	return errors.Join(errs...)
}

// kill stops every daemon of the topology at once, without a drain.
func (t *topology) kill() {
	for _, d := range append([]*daemon{t.router}, t.shards...) {
		if d != nil {
			d.kill()
		}
	}
}

// sample reads /proc for the router and the summed shards.
func (t *topology) sample() (router, shards procSample, err error) {
	if t.router != nil {
		if router, err = readProc(t.router.pid()); err != nil {
			return
		}
	}
	for _, d := range t.shards {
		s, e := readProc(d.pid())
		if e != nil {
			return router, shards, e
		}
		shards = shards.add(s)
	}
	return router, shards, nil
}

// shardTotals sums a /metrics counter over the shards.
func (t *topology) shardTotals(names ...string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, d := range t.shards {
		m, err := d.metrics()
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			out[n] += m[n]
		}
	}
	return out, nil
}

// conn is one closed-loop load connection: it sends a frame, waits for
// the reply, checks it, and only then builds the next.
type conn struct {
	c     *memserver.BinaryClient
	src   func(*frame)
	f     frame
	ops   []memserver.BatchOp
	resp  memserver.BatchResponse
	rresp memserver.ReadBatchResponse
	sh    *shadow
	tr    *tracer

	attempted, applied, failed int64
	writeLat, readLat          latencies
	mismatch                   error // first read that disagreed with the shadow
	broken                     error // transport failure; the connection stops
}

func dialConn(addr string, src func(*frame), lines uint64, tr *tracer) (*conn, error) {
	c, err := memserver.DialBinary(addr)
	if err != nil {
		return nil, err
	}
	return &conn{
		c: c, src: src, f: newFrame(), ops: make([]memserver.BatchOp, frameOps),
		sh: newShadow(lines), tr: tr,
	}, nil
}

// run sends n frames, recording their latencies when record is set.
func (c *conn) run(n int, record bool) {
	for i := 0; i < n && c.broken == nil; i++ {
		c.src(&c.f)
		lat := c.send(&c.f)
		if record {
			if c.f.read {
				c.readLat = append(c.readLat, lat)
			} else {
				c.writeLat = append(c.writeLat, lat)
			}
		}
	}
}

// send issues one frame on the connection and checks the answer. It
// returns the round trip in microseconds, or refused when the frame was
// refused or lost.
func (c *conn) send(f *frame) float64 {
	root := c.tr.begin("client.frame", -1, len(f.lines))
	defer c.tr.end(root)
	n := int64(len(f.lines))
	c.attempted += n
	var err error
	var t0 time.Time
	if f.read {
		t0 = time.Now()
		s := c.tr.begin("memserver.BinaryClient.SendReadBatch", root, len(f.lines))
		err = c.c.SendReadBatch(f.lines)
		c.tr.end(s)
		if err == nil {
			s = c.tr.begin("memserver.BinaryClient.RecvReadBatch", root, len(f.lines))
			err = c.c.RecvReadBatch(&c.rresp)
			c.tr.end(s)
		}
	} else {
		for k, l := range f.lines {
			c.ops[k] = memserver.BatchOp{Line: l, Data: f.content[k]}
		}
		t0 = time.Now()
		s := c.tr.begin("memserver.BinaryClient.SendBatch", root, len(f.lines))
		err = c.c.SendBatch(c.ops)
		c.tr.end(s)
		if err == nil {
			s = c.tr.begin("memserver.BinaryClient.RecvBatch", root, len(f.lines))
			err = c.c.RecvBatch(&c.resp)
			c.tr.end(s)
		}
	}
	lat := float64(time.Since(t0).Nanoseconds()) / 1e3

	var be *memserver.BackpressureError
	switch {
	case err == nil:
		c.check(f)
		return lat
	case errors.As(err, &be):
		applied := int64(0)
		if be.Resp != nil {
			applied = int64(be.Resp.Applied)
		} else if be.ReadResp != nil {
			applied = int64(be.ReadResp.Applied)
		}
		c.applied += applied
		c.failed += n - applied
		if !f.read {
			for _, l := range f.lines {
				c.sh.forget(l)
			}
		}
		return refused
	default:
		c.failed += n
		c.broken = err
		return refused
	}
}

// check validates a completed frame against the shadow and updates it.
func (c *conn) check(f *frame) {
	n := len(f.lines)
	if f.read {
		if c.rresp.Applied != n || len(c.rresp.Data) != n {
			c.noteMismatch(fmt.Errorf("read frame of %d lines answered %d applied, %d data", n, c.rresp.Applied, len(c.rresp.Data)))
			c.failed += int64(n - c.rresp.Applied)
			c.applied += int64(c.rresp.Applied)
			return
		}
		for k, l := range f.lines {
			if err := c.sh.check(l, c.rresp.Data[k]); err != nil {
				c.noteMismatch(err)
			}
		}
	} else {
		if c.resp.Applied != n {
			c.noteMismatch(fmt.Errorf("write frame of %d ops answered %d applied", n, c.resp.Applied))
			c.failed += int64(n - c.resp.Applied)
			c.applied += int64(c.resp.Applied)
			return
		}
		for k, l := range f.lines {
			c.sh.wrote(l, f.content[k])
		}
	}
	c.applied += int64(n)
}

func (c *conn) noteMismatch(err error) {
	if c.mismatch == nil {
		c.mismatch = err
	}
}

// phase runs n frames on every connection at once and returns the wall
// time until the last one finished.
func phase(conns []*conn, n int, record bool) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.run(n, record)
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// loadConns is the number of load connections: at most nproc, and two
// at most, each driven from its own goroutine in this one process.
func loadConns() int { return min(2, runtime.NumCPU()) }

// runServe sets up the topology setupRounds times, drives the fixed
// frame set through the last one, checks every answer and the daemons'
// own counters, and tears the topology down.
func runServe(rc runConfig, spec serveSpec, out *outcome) error {
	runtime.GOMAXPROCS(loadConns())
	var top *topology
	var setups, boots []float64
	for r := 0; r < setupRounds; r++ {
		t, setup, b, err := launch(spec, rc.binDir, rc.work)
		if err != nil {
			return err
		}
		setups, boots = append(setups, setup), append(boots, b...)
		if r < setupRounds-1 {
			// Only the set-up is measured, so these topologies are killed
			// rather than drained: a SIGTERM this soon could land before
			// a daemon has installed its drain handler.
			t.kill()
			continue
		}
		top = t
	}
	// A failed launch leaves its daemons to killAll in main.
	epoch := time.Now()
	nConns := loadConns()
	conns := make([]*conn, nConns)
	tracers := make([]*tracer, nConns)
	for i := range conns {
		tracers[i] = newTracer(rc.trace, epoch)
		c, err := dialConn(top.front().bin, spec.source(rc.seed, i), spec.lines(), tracers[i])
		if err != nil {
			return err
		}
		conns[i] = c
	}
	all := append([]*conn(nil), conns...) // every connection, for the checks
	defer func() {                        // error paths; the success path closes before the drain
		for _, c := range all {
			c.c.Close()
		}
	}()

	frames := rc.seconds * spec.framesPerSec
	warm := frames / 10
	phase(conns, warm, false)
	for _, c := range conns {
		c.tr.spans = c.tr.spans[:0] // spans cover the measured phase only
	}

	before, err := top.shardTotals("memctld_binary_frames_total")
	if err != nil {
		return err
	}
	rBefore, sBefore, err := top.sample()
	if err != nil {
		return err
	}
	cBefore, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	// The measured phase runs in measureBlocks blocks; each end-to-end
	// figure is the median over blocks, so a burst of host noise in one
	// block moves it little.
	var bs []block
	var measuredOps int64
	prevR, prevS := rBefore, sBefore
	for b := 0; b < measureBlocks; b++ {
		ops0, wl0, rl0 := int64(0), make([]int, len(conns)), make([]int, len(conns))
		for i, c := range conns {
			ops0 -= c.applied
			wl0[i], rl0[i] = len(c.writeLat), len(c.readLat)
		}
		wall := phase(conns, frames/measureBlocks, true)
		r, s, err := top.sample()
		if err != nil {
			return err
		}
		blk := block{wall: wall, ops: ops0}
		for i, c := range conns {
			blk.ops += c.applied
			blk.write = append(blk.write, c.writeLat[wl0[i]:]...)
			blk.read = append(blk.read, c.readLat[rl0[i]:]...)
		}
		blk.cpuNs = float64(r.sub(prevR).CPUNs + s.sub(prevS).CPUNs)
		prevR, prevS = r, s
		measuredOps += blk.ops
		bs = append(bs, blk)
	}
	rAfter, sAfter := prevR, prevS
	cAfter, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	after, err := top.shardTotals("memctld_binary_frames_total")
	if err != nil {
		return err
	}

	var writeLat, readLat latencies
	for _, c := range conns {
		writeLat = append(writeLat, c.writeLat...)
		readLat = append(readLat, c.readLat...)
	}
	rDelta, sDelta := rAfter.sub(rBefore), sAfter.sub(sBefore)
	ops := float64(max(measuredOps, 1))
	e2e := blockMedians(bs)
	e2e["setup_s"] = median(setups)
	e2e["rss_peak_mb"] = float64(rAfter.HWMkB+sAfter.HWMkB) / 1024
	out.e2e = e2e
	out.note("%d connections, %d frames each after %d warm-up, in %d blocks; %s",
		nConns, frames, warm, measureBlocks, describeBlocks(bs))

	var tr *tracer
	if rc.trace {
		tr = newTracer(true, epoch)
		tr.merge(tracers...)
		shardFrames := after["memctld_binary_frames_total"] - before["memctld_binary_frames_total"]
		clientFrames := float64(len(writeLat) + len(readLat))
		l := out.layers
		l["client.cpu_ns_per_op"] = float64(cAfter.sub(cBefore).CPUNs) / ops
		l["client.self_ns_per_op"] = float64(tr.selfTotal("client.frame")) / ops
		if top.router != nil {
			l["memrouter.cpu_ns_per_op"] = float64(rDelta.CPUNs) / ops
			l["memrouter.syscalls_per_frame"] = float64(rDelta.Syscalls) / clientFrames
			l["memrouter.ctx_switches_per_frame"] = float64(rDelta.CtxSw) / clientFrames
			l["memrouter.rss_mb"] = float64(rAfter.HWMkB) / 1024
		}
		l["memserver.cpu_ns_per_op"] = float64(sDelta.CPUNs) / ops
		l["memserver.syscalls_per_frame"] = float64(sDelta.Syscalls) / shardFrames
		l["memserver.ctx_switches_per_frame"] = float64(sDelta.CtxSw) / shardFrames
		l["memserver.boot_s"] = median(boots)
		l["memserver.rss_mb"] = float64(sAfter.HWMkB) / 1024

		direct := writeLat
		if top.router != nil {
			// The probe keeps the load to at most two connections:
			// connection 0 still talks to the router, and any other makes
			// way for one straight to shard 0. Spans end with the
			// measured phase.
			for _, c := range conns[1:] {
				c.c.Close()
			}
			straight, err := dialConn(top.shards[0].bin, nil, 0, newTracer(false, epoch))
			if err != nil {
				return err
			}
			straight.sh, conns[0].tr = conns[0].sh, straight.tr
			all = append(all, straight)
			routed, d := hopProbe(conns[0], straight, rc.seed, rc.seconds*hopFramesPerSec)
			direct = d
			l["memrouter.hop_p50_us"] = routed.summarize().P50 - direct.summarize().P50
		}
		ds := direct.summarize()
		l["memserver.frame_p50_us"] = ds.P50
		l["memserver.frame_p99_us"] = ds.Tail
		l["memserver.stall_frames_per_k"] = direct.stallsPerK()
	}

	// Output checks: every op the connections saw applied must show in
	// the shards' own counter, and every read matched the shadow.
	var applied int64
	for _, c := range all {
		applied += c.applied
		out.attempted += c.attempted
		out.failed += c.failed
		if c.broken != nil {
			out.fail("connection broke: %v", c.broken)
		}
		if c.mismatch != nil {
			out.fail("read check: %v", c.mismatch)
		}
	}
	final, err := top.shardTotals("memctld_binary_line_ops_total",
		"memctld_detector_alarms_total", "memctld_level_raises_total")
	if err != nil {
		return err
	}
	if got := final["memctld_binary_line_ops_total"]; got != float64(applied) {
		out.fail("shards applied %.0f line ops, the connections saw %d applied", got, applied)
	}
	if spec.scheme == memserver.SchemeAdaptive {
		alarms, raises := final["memctld_detector_alarms_total"], final["memctld_level_raises_total"]
		out.note("detector alarms %.0f, level raises %.0f", alarms, raises)
		if alarms < 1 || raises < 1 {
			out.fail("attack raised %.0f alarms and %.0f level raises, want at least 1 each", alarms, raises)
		}
		if rc.trace {
			out.layers["detector.alarms"] = alarms
			out.layers["seclevel.level_raises"] = raises
		}
	}
	for _, c := range all {
		c.c.Close()
	}
	if err := top.stop(); err != nil {
		out.fail("teardown: %v", err)
	}

	if rc.trace {
		if err := tr.write(filepath.Join(rc.work, "spans-"+rc.workload+".jsonl")); err != nil {
			return err
		}
		return probeServeLayers(rc, spec, frames, warm, out)
	}
	return nil
}

// hopFramesPerSec sets the hop probe's frame count per --seconds.
const hopFramesPerSec = 100

// hopProbe sends the same write frames through the router (on routed)
// and straight to shard 0 (on straight), one frame in flight, alternating
// which goes first, and returns each side's round trips. The frames write
// lines owned by the routed connection that live on shard 0, where the
// shard-local line equals the routed one; both sides share its shadow.
func hopProbe(routed, straight *conn, seed uint64, n int) (viaRouter, direct latencies) {
	rng := stats.NewRNG(connSeed(seed, -1))
	f := newFrame()
	for i := 0; i < n; i++ {
		for k := range f.lines {
			f.lines[k] = rng.Uint64n(1 << 18)
			f.content[k] = uint8(rng.Uint64n(3))
		}
		if i%2 == 0 {
			viaRouter = append(viaRouter, routed.send(&f))
			direct = append(direct, straight.send(&f))
		} else {
			direct = append(direct, straight.send(&f))
			viaRouter = append(viaRouter, routed.send(&f))
		}
	}
	return viaRouter, direct
}
