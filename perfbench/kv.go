package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"unsafe"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// kvReadRate is kv-read's offered load in requests per virtual second:
// below the knee of the 8-shard conservative fabric, so read p99 stays
// well under the 2 ms latency deadline (see RECORD.md for the sweep).
const kvReadRate = 8000.0

// layoutSeed fixes which keys are popular. The key layout is part of
// the workload's definition, like its size and mix; --seed drives the
// request stream over it (arrival times, operation mix and the keys
// drawn). A seeded layout would move the hot keys between shards from
// seed to seed and make shard imbalance, not the stack, dominate the
// spread of the tail percentiles across seeds.
const layoutSeed = 0x6e6563726f

// kvConfig describes one serving-fabric workload.
type kvConfig struct {
	fabric    serve.Config
	keys      int64
	valueSize int
	theta     float64 // Zipf skew of key popularity
	putFrac   float64
	openRate  float64 // > 0: open loop, Poisson arrivals at this rate
	clients   int     // closed loop: concurrent clients
	window    sim.Time
	// churnBlocks, when > 0, rewrites the key space before the window
	// until every device's FTL has erased at least this many blocks in
	// GC, so collection runs inside the window.
	churnBlocks int64
	// crash power-fails the fabric after the window, times recovery and
	// reads every acknowledged key back again.
	crash bool
}

// kvReadConfig is the read-path workload: a conservative fabric (WAL on
// flash behind the block layer) with MultiQueue stacks, scheduling,
// admission and the ring path, under open-loop Poisson load of 95% gets
// and 5% puts. The key space's trees are many times the shards' buffer
// pools, so most gets reach flash. tiny shortens the window for the
// self-test.
func kvReadConfig(tiny bool) kvConfig {
	c := kvConfig{
		fabric: serve.Config{
			Shards:  8,
			Devices: 2,
			Mode:    blockdev.MultiQueue,
			// A small FTL write buffer, so tree pages live on NAND rather
			// than in the device's buffer.
			DeviceOptions: ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 48, PagesPerBlock: 16, BufferPages: 64},
			// The WAL holds more than a window's puts, so no checkpoint
			// runs inside the window: the read path does the work.
			LogPages:  128,
			Scheduled: true,
			Store:     kvstore.Config{CacheFrames: 16},
			Admission: serve.AdmissionConfig{Enabled: true},
			Batch:     serve.BatchConfig{Enabled: true},
		},
		keys:      24000,
		valueSize: 256,
		theta:     0.6,
		putFrac:   0.05,
		openRate:  kvReadRate,
		window:    6 * sim.Second,
	}
	if tiny {
		c.window = 2500 * sim.Millisecond
	}
	return c
}

// kvWriteConfig is the commit-path workload: the progressive assembly
// (WAL on memory-bus PCM, atomic meta flips, trims, Direct stacks) under
// a closed loop of 80% puts and 20% gets, on devices churned until FTL
// garbage collection runs.
func kvWriteConfig(tiny bool) kvConfig {
	c := kvConfig{
		fabric: serve.Config{
			Shards:      8,
			Devices:     2,
			Mode:        blockdev.Direct,
			Progressive: true,
			// Small devices with raised GC watermarks, so the live trees
			// fill enough of the flash that collection moves pages.
			DeviceOptions: ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 24, PagesPerBlock: 16, GCLowWater: 6, GCHighWater: 8},
			Scheduled:     true,
			Store:         kvstore.Config{CacheFrames: 16, CheckpointBytes: 32 << 10},
			Admission:     serve.AdmissionConfig{Enabled: true},
			Batch:         serve.BatchConfig{Enabled: true},
		},
		keys:        24000,
		valueSize:   256,
		theta:       0.6,
		putFrac:     0.8,
		clients:     10,
		window:      10 * sim.Second,
		churnBlocks: 32,
		crash:       true,
	}
	if tiny {
		c.window = 600 * sim.Millisecond
	}
	return c
}

func runKVRead(seed uint64, traced bool, m *meter) error {
	return runKV(kvReadConfig(false), seed, traced, m)
}

func runKVWrite(seed uint64, traced bool, m *meter) error {
	return runKV(kvWriteConfig(false), seed, traced, m)
}

// kvLoad generates and accounts the requests of one kv episode.
type kvLoad struct {
	c       kvConfig
	seed    uint64
	eng     *sim.Engine
	fe      *serve.Frontend
	rng     *sim.RNG
	zipf    *sim.Zipf
	perm    []int // popularity rank -> key index (the fixed layout)
	horizon sim.Time

	writing map[int64]bool   // keys with a put in flight
	version map[int64]uint32 // last version issued per key
	acked   map[int64]uint32 // last version acknowledged per key

	inflight                  int
	attempted, served, window int64 // window: served by the horizon
	// refused counts requests rejected at admission or lost to a crash;
	// errored counts every other failure, such as a failed commit or a
	// corrupt page.
	refused, errored int64
	gets, puts       int64
	payload          int64 // user bytes (key + value) of acked puts
	getLat, putLat   latencies
}

// kvValue is key's verifiable payload at version ver: a header naming
// the key and version, then seeded filler.
func kvValue(seed uint64, key int64, ver uint32, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, uint64(key))
	binary.LittleEndian.PutUint32(v[8:], ver)
	x := fillSeed(seed, key, ver)
	for i := 12; i+8 <= size; i += 8 {
		x = xorshift(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	return v
}

// lastFillWord is the last filler word of kvValue(seed, key, ver, size),
// computed without building the value.
func lastFillWord(seed uint64, key int64, ver uint32, size int) uint64 {
	x := fillSeed(seed, key, ver)
	for i := 12; i+8 <= size; i += 8 {
		x = xorshift(x)
	}
	return x
}

func fillSeed(seed uint64, key int64, ver uint32) uint64 {
	return seed ^ uint64(key)*0x9e3779b97f4a7c15 ^ uint64(ver)<<40 | 1
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// pick draws a key by popularity; a put never picks a key whose
// previous put is still in flight, so acknowledgement order is commit
// order for every key.
func (l *kvLoad) pick(put bool) int64 {
	for {
		k := int64(l.perm[l.zipf.Next()])
		if !put || !l.writing[k] {
			return k
		}
	}
}

// issue submits one generated request, timed from now (its due time),
// and calls done with its outcome.
func (l *kvLoad) issue(done func(error)) {
	put := l.rng.Float64() < l.c.putFrac
	k := l.pick(put)
	key := l.fe.Key(k)
	due := l.eng.Now()
	op := serve.Op{Kind: serve.OpGet, Key: key, Class: sched.LatencySensitive}
	var ver uint32
	if put {
		ver = l.version[k] + 1
		l.version[k] = ver
		l.writing[k] = true
		op = serve.Op{Kind: serve.OpPut, Key: key, Value: kvValue(l.seed, k, ver, l.c.valueSize), Class: sched.Throughput}
	}
	l.inflight++
	l.attempted++
	l.fe.Submit(op, func(err error) {
		l.inflight--
		now := l.eng.Now()
		if put {
			delete(l.writing, k)
		}
		switch {
		case errors.Is(err, serve.ErrRejected), errors.Is(err, serve.ErrCrashed):
			l.refused++
		case err != nil:
			l.errored++
		default:
			l.served++
			if now <= l.horizon {
				l.window++
			}
			if put {
				l.puts++
				l.acked[k] = ver
				l.payload += int64(len(key) + l.c.valueSize)
				l.putLat = append(l.putLat, int64(now-due))
			} else {
				l.gets++
				l.getLat = append(l.getLat, int64(now-due))
			}
		}
		if done != nil {
			done(err)
		}
	})
}

// start schedules the load: Poisson arrivals for an open loop, or
// clients that issue their next request as soon as the last one
// settles (after a short back-off on failure) for a closed loop.
func (l *kvLoad) start() {
	now := l.eng.Now()
	if l.c.openRate > 0 {
		mean := float64(sim.Second) / l.c.openRate
		var arrive func()
		arrive = func() {
			if l.eng.Now() >= l.horizon {
				return
			}
			l.issue(nil)
			l.eng.Schedule(l.eng.Now()+sim.Time(l.rng.Exp(mean))+1, arrive)
		}
		l.eng.Schedule(now+sim.Time(l.rng.Exp(mean))+1, arrive)
		return
	}
	const backoff = 100 * sim.Microsecond
	var client func(error)
	client = func(err error) {
		if l.eng.Now() >= l.horizon {
			return
		}
		if err != nil {
			l.eng.Schedule(l.eng.Now()+backoff, func() { l.issue(client) })
			return
		}
		l.issue(client)
	}
	for i := 0; i < l.c.clients; i++ {
		l.eng.Schedule(now, func() { l.issue(client) })
	}
}

// verify reads every acknowledged key back through its shard's store
// and counts the ones that do not hold their last acknowledged value.
func (l *kvLoad) verify(p *sim.Proc) (lost int64) {
	keys := make([]int64, 0, len(l.acked))
	for k := range l.acked {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		key := l.fe.Key(k)
		got, err := l.fe.ShardFor(key).System().Store.Get(p, key)
		if err != nil || !bytes.Equal(got, kvValue(l.seed, k, l.acked[k], l.c.valueSize)) {
			lost++
		}
	}
	return lost
}

// kvCounters is a snapshot of the fabric's cumulative counters.
type kvCounters struct {
	programmed        int64 // flash pages programmed (incl. copyback)
	ftl               ftl.Stats
	devReads          int64
	readLat, writeLat []*metrics.Histogram // per device
	stackCPU          sim.Time
	wait              map[string]sim.Time
	commits, batches  int64
	batchOps, ckpts   int64
	hits, misses      int64
	walBytes          int64
	pcmWrites         int64
	pageSize, heights int
}

func devicesOf(f *serve.Fabric) ([]*ssd.Device, error) {
	var out []*ssd.Device
	for d := 0; d < f.Devices(); d++ {
		dev, ok := f.Stack(d).Device().(*ssd.Device)
		if !ok {
			return nil, fmt.Errorf("device %d is not a flash device", d)
		}
		out = append(out, dev)
	}
	return out, nil
}

func pageFTL(dev *ssd.Device) (*ftl.PageFTL, error) {
	pf, ok := dev.FTL().(*ftl.PageFTL)
	if !ok {
		return nil, fmt.Errorf("%s: FTL is not page-mapped", dev.Name())
	}
	return pf, nil
}

// addFTL accumulates the counters the benchmark reads.
func addFTL(dst *ftl.Stats, s ftl.Stats) {
	dst.HostReads += s.HostReads
	dst.HostWrites += s.HostWrites
	dst.BufferHits += s.BufferHits
	dst.BufferStalls += s.BufferStalls
	dst.GCMoves += s.GCMoves
	dst.GCErases += s.GCErases
}

// membus returns the fabric's shared PCM bus, or nil on the
// conservative assembly. The fabric does not expose it, so it is read
// from the first shard's PCM log by reflection; a renamed field fails
// the run loudly rather than silently reporting zero.
func membus(f *serve.Fabric) (*pcm.MemBus, error) {
	log, ok := f.Shards()[0].System().Core.Log.(*core.PCMLog)
	if !ok {
		return nil, nil
	}
	fv := reflect.ValueOf(log).Elem().FieldByName("bus")
	if !fv.IsValid() || fv.Type() != reflect.TypeOf((*pcm.MemBus)(nil)) {
		return nil, errors.New("core.PCMLog has no bus field of type *pcm.MemBus")
	}
	return *(**pcm.MemBus)(unsafe.Pointer(fv.UnsafeAddr())), nil
}

func snapKV(f *serve.Fabric) (kvCounters, error) {
	c := kvCounters{wait: map[string]sim.Time{}}
	devs, err := devicesOf(f)
	if err != nil {
		return c, err
	}
	for d, dev := range devs {
		pf, err := pageFTL(dev)
		if err != nil {
			return c, err
		}
		arr := dev.Array()
		c.programmed += arr.PagePrograms + arr.CopyBacks
		c.pageSize = arr.PageSize()
		addFTL(&c.ftl, pf.Stats())
		m := dev.Metrics()
		c.devReads += m.Reads.Ops
		c.readLat = append(c.readLat, m.ReadLat.Clone())
		c.writeLat = append(c.writeLat, m.WriteLat.Clone())
		c.stackCPU += f.Stack(d).CPUBusy()
		if s := f.Scheduler(d); s != nil {
			for class, w := range s.WaitTotals() {
				c.wait[class] += w
			}
		}
	}
	for _, sh := range f.Shards() {
		st := sh.System().Store
		c.commits += st.Commits
		c.batches += st.BatchCommits
		c.batchOps += st.BatchOps
		c.ckpts += st.Checkpoints
		c.hits += st.Cache().Hits
		c.misses += st.Cache().Misses
		c.walBytes += st.WAL().LogDevice().Tail()
		c.heights += st.TreeHeight()
	}
	bus, err := membus(f)
	if err != nil {
		return c, err
	}
	if bus != nil {
		c.pcmWrites = bus.Device().Writes()
	}
	return c, nil
}

// pcmBusy reads the PCM device's cumulative busy time, or 0 on the
// conservative assembly.
func pcmBusy(f *serve.Fabric) (sim.Time, error) {
	bus, err := membus(f)
	if bus == nil || err != nil {
		return 0, err
	}
	return bus.Device().Server().Busy(), nil
}

// latencyDelta merges the per-device histogram growth since before.
func latencyDelta(before, after []*metrics.Histogram) *metrics.Histogram {
	out := &metrics.Histogram{}
	for i := range after {
		out.Merge(after[i].DeltaFrom(before[i]))
	}
	return out
}

// runKV runs one kv episode: build and preload (and churn) the fabric,
// drive the window, drain and verify; with c.crash, power-fail the
// fabric, time its recovery and verify again.
func runKV(c kvConfig, seed uint64, traced bool, m *meter) error {
	ep := m.ep
	cfg := c.fabric
	cfg.Trace, cfg.Profile = traced, traced
	eng := sim.NewEngine()

	m.setupBegin()
	var fab *serve.Fabric
	var fe *serve.Frontend
	err := runProc(eng, func(p *sim.Proc) error {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			return err
		}
		fab = f
		fe = serve.NewFrontend(f, c.keys, c.valueSize)
		if err := fe.Preload(p); err != nil {
			return err
		}
		for round := 0; c.churnBlocks > 0; round++ {
			aged, err := gcErased(f, c.churnBlocks)
			if err != nil || aged {
				return err
			}
			if round == 40 {
				return fmt.Errorf("devices not aged after %d churn rounds", round)
			}
			if err := fe.Churn(p, 1); err != nil {
				return err
			}
		}
		return nil
	})
	m.setupEnd()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	rng := sim.NewRNG(seed)
	l := &kvLoad{
		c: c, seed: seed, eng: eng, fe: fe, rng: rng,
		zipf:    sim.NewZipf(rng, c.keys, c.theta),
		perm:    sim.NewRNG(layoutSeed).Perm(int(c.keys)),
		writing: map[int64]bool{},
		version: map[int64]uint32{},
		acked:   map[int64]uint32{},
	}
	fab.ResetStats()
	before, err := snapKV(fab)
	if err != nil {
		return err
	}
	busy0, err := pcmBusy(fab)
	if err != nil {
		return err
	}
	start := eng.Now()
	l.horizon = start + c.window
	over := false
	eng.Schedule(l.horizon, func() { over = true })
	l.start()
	if err := m.windowBegin(); err != nil {
		return err
	}
	events, err := stepUntil(eng, &over)
	if err != nil {
		return fmt.Errorf("window: %w", err)
	}
	if err := m.windowEnd(); err != nil {
		return err
	}
	// PCM busy time is read at the window's end, like the profiler, so
	// pcm.busy_frac covers the same interval as the nand and bus figures.
	prof := fab.Profiler().Snapshot()
	busy1, err := pcmBusy(fab)
	if err != nil {
		return err
	}
	for l.inflight > 0 {
		if !eng.Step() {
			return fmt.Errorf("drain: %d requests never completed", l.inflight)
		}
	}
	after, err := snapKV(fab)
	if err != nil {
		return err
	}
	tot := fab.Stats().Totals()

	var recovery sim.Time
	err = runProc(eng, func(p *sim.Proc) error {
		if lost := l.verify(p); lost > 0 {
			ep.lost += lost
			ep.fail("%d acknowledged writes did not read back after the window", lost)
		}
		if !c.crash {
			return nil
		}
		t0 := p.Now()
		if err := fab.Crash(p); err != nil {
			return err
		}
		recovery = p.Now() - t0
		if lost := l.verify(p); lost > 0 {
			ep.lost += lost
			ep.fail("%d acknowledged writes did not read back after crash recovery", lost)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fab.Stop(false)
	for eng.Step() {
	}

	ep.attempted = l.attempted
	ep.failed = l.attempted - l.served
	ep.served = l.window
	ep.events = events
	v := ep.virt
	v["served_ops_per_vs"] = float64(l.window) / c.window.Seconds()
	v["served_frac"] = ratio(float64(l.served), float64(l.attempted))
	v["error_free_frac"] = 1 - ratio(float64(l.errored), float64(l.attempted))
	ep.info["rejected_ops"] = metric{float64(l.refused), "count"}
	ep.info["error_ops"] = metric{float64(l.errored), "count"}
	v["write_amp"] = ratio(float64((after.programmed-before.programmed)*int64(after.pageSize)), float64(l.payload))
	latencyMetrics(ep, l.getLat, l.putLat)

	lay := ep.layer
	lay["recovery_vms"] = recovery.Millis()
	lay["ssd.stale_reads"] = 0
	served := float64(l.served)
	gets, puts := float64(l.gets), float64(l.puts)
	// Every shard's scheduler tenant is latency-class, so the
	// scheduler's per-class totals cannot split requests by class; the
	// traced span stages do.
	var wait sim.Time
	for class, w := range after.wait {
		wait += w - before.wait[class]
	}
	lay["sched.wait_us_per_req"] = ratio(float64(wait)/1e3, served)
	lay["serve.reject_frac"] = ratio(float64(tot.Rejected), float64(tot.Submitted))
	lay["serve.deadline_miss_frac"] = ratio(float64(tot.DeadlineMissed), float64(tot.Served))
	lay["serve.max_queue"] = float64(tot.MaxQueue)
	lay["blockdev.cpu_ns_per_op"] = ratio(float64(after.stackCPU-before.stackCPU), served)
	commits := float64(after.commits - before.commits)
	batches := float64(after.batches - before.batches)
	lay["kvstore.ops_per_commit"] = ratio(commits-batches+float64(after.batchOps-before.batchOps), commits)
	lay["kvstore.checkpoints"] = float64(after.ckpts - before.ckpts)
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	lay["bufpool.hit_rate"] = ratio(hits, hits+misses)
	lay["btree.height"] = float64(after.heights) / float64(len(fab.Shards()))
	lay["ssd.reads_per_get"] = ratio(float64(after.devReads-before.devReads), gets)
	lay["wal.bytes_per_put"] = ratio(float64(after.walBytes-before.walBytes), puts)
	lay["pcm.writes_per_put"] = ratio(float64(after.pcmWrites-before.pcmWrites), puts)
	lay["pcm.busy_frac"] = ratio(float64(busy1-busy0), float64(c.window))
	layFTL(lay, before.ftl, after.ftl)
	lay["ssd.read_p99_us"] = float64(latencyDelta(before.readLat, after.readLat).P99()) / 1e3
	lay["ssd.write_p99_us"] = float64(latencyDelta(before.writeLat, after.writeLat).P99()) / 1e3

	if c.openRate > 0 && lay["ssd.reads_per_get"] < 0.5 {
		ep.fail("premise: only %.2f device reads per get; most gets never reach the device", lay["ssd.reads_per_get"])
	}
	if c.churnBlocks > 0 && after.ftl.GCMoves == before.ftl.GCMoves {
		ep.fail("premise: FTL GC moved no pages in the window")
	}
	if traced {
		layTrace(ep, fab.Tracer().Snapshot(), c.openRate > 0)
		layProfile(ep, prof)
	}
	return nil
}

// gcErased reports whether every device's FTL has erased at least n
// blocks in garbage collection.
func gcErased(f *serve.Fabric, n int64) (bool, error) {
	devs, err := devicesOf(f)
	if err != nil {
		return false, err
	}
	for _, dev := range devs {
		pf, err := pageFTL(dev)
		if err != nil {
			return false, err
		}
		if pf.Stats().GCErases < n {
			return false, nil
		}
	}
	return true, nil
}

// layFTL records the FTL's window counters.
func layFTL(lay map[string]float64, before, after ftl.Stats) {
	lay["ftl.gc_moves_per_write"] = ratio(float64(after.GCMoves-before.GCMoves), float64(after.HostWrites-before.HostWrites))
	lay["ftl.gc_erases"] = float64(after.GCErases - before.GCErases)
	lay["ftl.buffer_hit_frac"] = ratio(float64(after.BufferHits-before.BufferHits), float64(after.HostReads-before.HostReads))
	lay["ftl.buffer_stalls"] = float64(after.BufferStalls - before.BufferStalls)
}

// layTrace records the span breakdown per class and checks the
// tracer's own accounting: every span closed, none overran.
func layTrace(ep *episode, snap obs.TraceSnapshot, readPath bool) {
	if snap.Opened != snap.Closed || snap.Overruns != 0 {
		ep.fail("tracer: %d spans opened, %d closed, %d overruns", snap.Opened, snap.Closed, snap.Overruns)
	}
	for _, class := range []string{"latency", "throughput"} {
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			ep.layer["span."+class+"."+st.String()+".mean_us"] = 0
		}
		ep.layer["span."+class+".ios_per_req"] = 0
	}
	for _, ct := range snap.Classes {
		for _, st := range ct.Stages {
			ep.layer["span."+ct.Class+"."+st.Stage+".mean_us"] = st.Hist.MeanUs
		}
		ep.layer["span."+ct.Class+".ios_per_req"] = ratio(float64(ct.IOs), float64(ct.Total.Count))
	}
	if readPath && ep.layer["span.latency.ios_per_req"] < 0.5 {
		ep.fail("premise: latency-class requests issue only %.2f device I/Os each", ep.layer["span.latency.ios_per_req"])
	}
}

// layProfile records chip and channel utilization from the resource
// profiler and checks that its attribution closed exactly.
func layProfile(ep *episode, pr obs.Profile) {
	if u, d, o := pr.UnattributedNs(), pr.DoubleCountedNs(), pr.OtherNs(); u != 0 || d != 0 || o != 0 {
		ep.fail("profiler not closed: %d ns unattributed, %d double-counted, %d other", u, d, o)
	}
	lay := ep.layer
	var chips, utilSum, utilMax, chanMax float64
	causes := map[string]float64{}
	for _, r := range pr.Resources {
		switch r.Kind {
		case obs.ResChip:
			chips++
			utilSum += r.Utilization
			utilMax = max(utilMax, r.Utilization)
			for _, cause := range nandCauses {
				// Chip utilization divides by the LUN count; so does the
				// per-cause share.
				if r.AttributedNs > 0 {
					causes[cause] += r.Utilization * float64(r.Causes[cause]) / float64(r.AttributedNs)
				}
			}
		case obs.ResChannel:
			chanMax = max(chanMax, r.Utilization)
		}
	}
	lay["nand.chip_util_max"] = utilMax
	lay["nand.chip_util_mean"] = ratio(utilSum, chips)
	for _, cause := range nandCauses {
		lay["nand.busy_frac."+cause] = ratio(causes[cause], chips)
	}
	lay["bus.channel_util_max"] = chanMax
}
