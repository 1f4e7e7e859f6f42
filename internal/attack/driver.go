package attack

import (
	"errors"

	"securityrbsg/internal/pcm"
)

// errStopped aborts an attack's phases when the oracle or budget fires.
var errStopped = errors.New("attack stopped")

// driver is the timed-target scaffolding every RTA embeds: it issues the
// attacker's writes, enforces the Oracle and MaxWrites stop conditions,
// and accumulates the Result. The attacks keep only their shadow models
// and inference; every write they make goes through write or run.
type driver struct {
	target    Target
	batch     BatchTarget // target's batch capability, nil when absent
	timing    pcm.Timing
	maxWrites uint64
	oracle    func() bool
	res       Result

	// Event capture for run: onEvent is capture bound once per Run, so
	// batched runs hand WriteRun a callback without allocating one.
	onEvent     func(i, ns uint64) bool
	evIdx, evNs uint64
	sawEvent    bool
}

// start resets the driver for one Run. A zero timing means the public
// default device timing.
func (d *driver) start(t Target, timing pcm.Timing, maxWrites uint64, oracle func() bool) {
	if timing == (pcm.Timing{}) {
		timing = pcm.DefaultTiming
	}
	*d = driver{target: t, timing: timing, maxWrites: maxWrites, oracle: oracle}
	d.batch, _ = t.(BatchTarget)
	d.onEvent = d.capture
}

// capture records the latest anomalous write of a batched run.
func (d *driver) capture(i, ns uint64) bool {
	d.evIdx, d.evNs, d.sawEvent = i, ns, true
	return true
}

// finish normalizes the sentinel stop error: an oracle or budget stop
// ends the attack without error.
func (d *driver) finish(err error) error {
	if errors.Is(err, errStopped) {
		return nil
	}
	return err
}

// precheck is the stop test made before every write: the oracle first
// (marking the result failed), then the budget.
func (d *driver) precheck() error {
	if d.oracle != nil && d.oracle() {
		d.res.Failed = true
		return errStopped
	}
	if d.maxWrites > 0 && d.res.Writes >= d.maxWrites {
		return errStopped
	}
	return nil
}

// write issues one attacker write and returns the latency beyond the
// demand write itself (the remapping side channel).
func (d *driver) write(la uint64, c pcm.Content) (extraNs uint64, err error) {
	if err := d.precheck(); err != nil {
		return 0, err
	}
	ns := d.target.Write(la, c)
	d.res.Writes++
	d.res.AttackNs += ns
	return ns - d.timing.WriteNs(c), nil
}

// run issues k ≥ 1 consecutive writes of c to la — callers size k so
// that only the k-th write can carry a remapping movement — and returns
// how many were issued and the last write's extra latency. The caller
// advances its shadow model by issued writes whether or not err is set.
//
// When the target implements BatchTarget the run is batched and the
// oracle/budget checks the naive loop makes before every write happen
// at batch boundaries instead. This is exact for the device-failure
// oracle: WriteRun's stopOnFail truncates the batch immediately after
// the bank's first failure — precisely the write after which the naive
// loop's next precheck would have stopped — and the budget clamp
// truncates at the same write the per-write budget check would. Other
// oracles observe batch-boundary granularity.
//
//rbsglint:hotpath
func (d *driver) run(la uint64, c pcm.Content, k uint64) (issued, extra uint64, err error) {
	if d.batch == nil || k < 2 {
		for ; issued < k; issued++ {
			if extra, err = d.write(la, c); err != nil {
				return issued, 0, err
			}
		}
		return issued, extra, nil
	}
	if err := d.precheck(); err != nil {
		return 0, 0, err
	}
	want := k
	if d.maxWrites > 0 && want > d.maxWrites-d.res.Writes {
		want = d.maxWrites - d.res.Writes
	}
	for issued < want {
		// The naive loop's extra is the LAST write's extra latency — not
		// that of any anomalous write mid-run (against schemes whose real
		// movements the attack's shadow mispredicts, those differ). Keep
		// an event only if it landed on the run's final write.
		d.sawEvent = false
		got, ns := d.batch.WriteRun(la, c, want-issued, d.oracle != nil, d.onEvent)
		issued += got
		d.res.Writes += got
		d.res.AttackNs += ns
		extra = 0
		if d.sawEvent && d.evIdx == got-1 {
			extra = d.evNs - d.timing.WriteNs(c)
		}
		if issued == want {
			break
		}
		// stopOnFail truncated the run at the bank's first failure; the
		// naive loop's next per-write precheck would now observe it.
		if d.oracle() {
			d.res.Failed = true
			return issued, extra, errStopped
		}
		// The oracle does not consider the failure fatal: resume the
		// batch (a bank first-fails at most once, so stopOnFail cannot
		// truncate again).
	}
	if issued < k {
		err = errStopped // budget exhausted mid-epoch, like the naive precheck
	}
	return issued, extra, err
}
