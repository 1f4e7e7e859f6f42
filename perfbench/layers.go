package main

import (
	"math/bits"
	"path/filepath"
	"time"

	"securityrbsg/internal/core"
	"securityrbsg/internal/feistel"
	"securityrbsg/internal/membank"
	"securityrbsg/internal/memrouter"
	"securityrbsg/internal/memserver"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// kernelOps is how many of the workload's ops the kernel probes replay.
const kernelOps = 1 << 20

// kernelChunk is the number of calls one kernel span covers; a span per
// call would time the clock more than the kernel.
const kernelChunk = 4096

// fillReps is how many Table.Fill calls feistel.fill_ms takes the
// median of.
const fillReps = 16

// kernelSink keeps kernel results live.
var kernelSink uint64

// probeKernels times the per-bank kernels at a workload's bank size,
// fed its own bank-local lines and write contents: core translation,
// Feistel table fill and encryption, and the PCM bank write.
func probeKernels(bankLines uint64, locals []uint64, contents []uint8, out *outcome) error {
	tr := newTracer(true, time.Now())
	sch, err := core.New(core.Config{
		Lines: bankLines, Regions: 32, InnerInterval: 100, OuterInterval: 100,
		Stages: 7, Seed: daemonSeed,
	})
	if err != nil {
		return err
	}
	chunks(tr, "core.Scheme.Translate", locals, func(l uint64, _ int) { kernelSink += sch.Translate(l) })

	// The permutation core.Scheme materializes: a 7-stage network over
	// the bank's lines, one bit wider under cycle walking when the
	// address width is odd (Feistel halves must be equal).
	width := uint(bits.Len64(bankLines - 1))
	net, err := feistel.Random(width+width%2, 7, stats.NewRNG(daemonSeed))
	if err != nil {
		return err
	}
	var perm feistel.Permutation = net
	if width%2 == 1 {
		if perm, err = feistel.NewWalker(net, bankLines); err != nil {
			return err
		}
	}
	chunks(tr, "feistel.Network.Encrypt", locals, func(l uint64, _ int) { kernelSink += perm.Encrypt(l) })
	tab, err := feistel.NewTable(perm)
	if err != nil {
		return err
	}
	for i := 0; i < fillReps; i++ {
		s := tr.begin("feistel.Table.Fill", -1, int(bankLines))
		err := tab.Fill(perm)
		tr.end(s)
		if err != nil {
			return err
		}
	}

	bank, err := pcm.NewBank(pcm.Config{Lines: bankLines, Endurance: 1 << 30})
	if err != nil {
		return err
	}
	chunks(tr, "pcm.Bank.Write", locals, func(l uint64, k int) { kernelSink += bank.Write(l, pcm.Content(contents[k])) })

	l := out.layers
	l["core.translate_ns"] = perOp(tr, "core.Scheme.Translate")
	l["feistel.encrypt_ns"] = perOp(tr, "feistel.Network.Encrypt")
	l["feistel.fill_ms"] = tr.durations("feistel.Table.Fill").summarize().P50 / 1e3
	l["pcm.write_ns"] = perOp(tr, "pcm.Bank.Write")
	return nil
}

// chunks calls fn on every line, one span per kernelChunk calls.
func chunks(tr *tracer, name string, lines []uint64, fn func(l uint64, k int)) {
	for lo := 0; lo < len(lines); lo += kernelChunk {
		hi := min(lo+kernelChunk, len(lines))
		s := tr.begin(name, -1, hi-lo)
		for k := lo; k < hi; k++ {
			fn(lines[k], k)
		}
		tr.end(s)
	}
}

// perOp is the mean span time per op of the named spans, in ns.
func perOp(tr *tracer, name string) float64 {
	ns, ops, _ := tr.total(name)
	if ops == 0 {
		return 0
	}
	return float64(ns) / float64(ops)
}

// probeServeLayers replays a serving workload's own frames (the warm-up
// and measured frames of every connection, frame by frame in turn)
// through memserver.New(cfg).Memory() of servers configured like the
// daemons but never started: the wear and membank layers with no actor
// and no wire. It then runs the kernel probes on the same stream.
func probeServeLayers(rc runConfig, spec serveSpec, frames, warm int, out *outcome) error {
	mems := make([]*membank.Memory, spec.shards)
	for i := range mems {
		srv, err := memserver.New(memserver.Config{
			Banks: spec.banks, Lines: spec.shardLines, Scheme: spec.scheme, Seed: daemonSeed,
		})
		if err != nil {
			return err
		}
		mems[i] = srv.Memory()
	}
	groups := make([]int, spec.shards)
	for i := range groups {
		groups[i] = i
	}
	m, err := memrouter.NewMap(spec.lines(), spec.shards, spec.shards, groups)
	if err != nil {
		return err
	}

	n := loadConns()
	srcs := make([]func(*frame), n)
	for i := range srcs {
		srcs[i] = spec.source(rc.seed, i)
	}
	tr := newTracer(true, time.Now())
	f := newFrame()
	locals := make([]uint64, 0, kernelOps)
	contents := make([]uint8, 0, kernelOps)
	for i := 0; i < warm+frames; i++ {
		for _, src := range srcs {
			src(&f)
			name := "membank.Memory.Write"
			if f.read {
				name = "membank.Memory.Read"
			}
			s := tr.begin(name, -1, len(f.lines))
			for k, la := range f.lines {
				shard, local := m.Locate(la)
				if f.read {
					mems[shard].Read(local)
				} else {
					mems[shard].Write(local, pcm.Content(f.content[k]))
				}
			}
			tr.end(s)
			for k, la := range f.lines {
				if len(locals) == cap(locals) {
					break
				}
				_, local := m.Locate(la)
				locals = append(locals, local/uint64(spec.banks))
				contents = append(contents, f.content[k])
			}
		}
	}
	l := out.layers
	l["wear.write_ns"] = perOp(tr, "membank.Memory.Write")
	l["wear.read_ns"] = perOp(tr, "membank.Memory.Read")
	var banks []*wear.Controller
	for _, mem := range mems {
		for b := 0; b < mem.Banks(); b++ {
			banks = append(banks, mem.Bank(b))
		}
	}
	l["wear.remap_moves_per_kwrite"] = remapPerKWrite(banks)
	if err := tr.write(filepath.Join(rc.work, "spans-"+rc.workload+"-replay.jsonl")); err != nil {
		return err
	}
	return probeKernels(spec.shardLines/uint64(spec.banks), locals, contents, out)
}
