package memrouter

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"securityrbsg/internal/memserver"
)

// Config describes one router instance.
type Config struct {
	// Shards lists the shard binary protocol addresses (host:port),
	// indexed by shard number. Required.
	Shards []string
	// ShardControl lists the shards' HTTP control planes (for health
	// checks and metric aggregation), aligned with Shards. Optional:
	// without it, health falls back to connection liveness and /metrics
	// serves only the router's own series.
	ShardControl []string
	// Lines is the total logical line space the router serves. Required;
	// must divide evenly into Groups.
	Lines uint64
	// Groups is the bank-group count (default: one group per shard).
	Groups int
	// GroupMap assigns groups to shards explicitly; nil uses the
	// deterministic rendezvous fallback.
	GroupMap []int
	// Conns is the connection-pool size per shard (default 2).
	Conns int
	// Window is the in-flight frame window per shard connection
	// (default 32).
	Window int
	// HealthEvery is the shard health-probe period (default 2s).
	HealthEvery time.Duration
}

func (c *Config) normalize() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("memrouter: no shards configured")
	}
	if len(c.ShardControl) != 0 && len(c.ShardControl) != len(c.Shards) {
		return fmt.Errorf("memrouter: %d control addresses for %d shards", len(c.ShardControl), len(c.Shards))
	}
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	return nil
}

// Router fans binary protocol traffic out over the shard set. It holds
// no wear-leveling state — the map and the pools are the whole thing —
// so routers scale horizontally in front of a fixed shard tier.
type Router struct {
	cfg   Config
	m     *Map
	pools []*shardPool

	fe       *memserver.FrameServer // client listener
	draining atomic.Bool
	started  atomic.Bool

	// Serving counters (/metrics).
	nacks    atomic.Uint64 // frames answered with aggregated backpressure
	lineOps  atomic.Uint64 // line ops routed (batch + read frames)
	readOps  atomic.Uint64 // of those, ops on streaming read-batch frames
	splitFr  atomic.Uint64 // frames that touched more than one shard
	healthMu sync.Mutex
	health   []shardHealth // probe results, indexed by shard

	stopHealth chan struct{}
	healthWG   sync.WaitGroup
}

// shardHealth is one shard's last probe result.
type shardHealth struct {
	ok     bool
	detail string // why not, for /healthz bodies
}

// New builds a router (pools not yet dialing; call Start).
func New(cfg Config) (*Router, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m, err := NewMap(cfg.Lines, cfg.Groups, len(cfg.Shards), cfg.GroupMap)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:        cfg,
		m:          m,
		health:     make([]shardHealth, len(cfg.Shards)),
		stopHealth: make(chan struct{}),
	}
	r.fe = memserver.NewFrameServer(frontend{r}, cfg.Lines)
	for i := range r.health {
		r.health[i] = shardHealth{ok: false, detail: "not probed yet"}
	}
	return r, nil
}

// Map exposes the bank-group map (topology introspection and tests).
func (r *Router) Map() *Map { return r.m }

// Start dials the shard pools and begins health probing.
func (r *Router) Start() {
	if r.started.Swap(true) {
		return
	}
	r.pools = make([]*shardPool, len(r.cfg.Shards))
	for i, addr := range r.cfg.Shards {
		r.pools[i] = newShardPool(i, addr, r.cfg.Conns, r.cfg.Window)
	}
	r.healthWG.Add(1)
	go r.healthLoop()
}

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool { return r.draining.Load() }

// Shutdown drains the router: the client listener closes and every
// in-flight frame finishes (or ctx expires), then the shard pools and
// the health prober stop. The shards must still be up while this runs
// — which is why the smoke script SIGTERMs the router first and the
// shards after.
func (r *Router) Shutdown(ctx context.Context) error {
	if r.draining.Swap(true) {
		return nil
	}
	err := r.fe.Shutdown(ctx)
	if err != nil {
		err = fmt.Errorf("memrouter: frontend %w", err)
	}
	close(r.stopHealth)
	r.healthWG.Wait()
	if r.started.Load() {
		for _, p := range r.pools {
			p.close()
		}
	}
	return err
}
