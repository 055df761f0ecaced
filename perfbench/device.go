package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// devConfig describes the raw-device workload.
type devConfig struct {
	opts     ssd.Options
	qd       int
	readFrac float64
	window   sim.Time
}

// deviceRWConfig is a raw Enterprise2012 device (2 channels × 4 chips ×
// 128 blocks × 32 pages), aged by a sequential fill and one random
// overwrite pass, then driven at queue depth 16 with 70/30 random 4 KiB
// reads and writes. Only ftl, nand, bus, ecc and sim do work here.
func deviceRWConfig(tiny bool) devConfig {
	c := devConfig{
		opts:     ssd.Options{Channels: 2, ChipsPerChannel: 4, BlocksPerPlane: 128, PagesPerBlock: 32},
		qd:       16,
		readFrac: 0.7,
		window:   12 * sim.Second,
	}
	if tiny {
		c.window = 800 * sim.Millisecond
	}
	return c
}

func runDeviceRW(seed uint64, traced bool, m *meter) error {
	return runDevice(deviceRWConfig(false), seed, traced, m)
}

// devPage is lpn's verifiable payload at version ver (ver 0 is the
// aging pass, which writes no payload).
func devPage(seed uint64, lpn int64, ver uint32, size int) []byte {
	if ver == 0 {
		return nil
	}
	return kvValue(seed, lpn, ver, size)
}

// pageOK checks a read page against the version last acknowledged for
// its LPN: the header names the LPN and version, and the last filler
// word matches.
func pageOK(seed uint64, lpn int64, ver uint32, data []byte, size int) bool {
	if ver == 0 {
		return len(data) == 0
	}
	if len(data) != size || int64(binary.LittleEndian.Uint64(data)) != lpn || binary.LittleEndian.Uint32(data[8:]) != ver {
		return false
	}
	last := 12 + (size-12)/8*8 - 8
	return binary.LittleEndian.Uint64(data[last:]) == lastFillWord(seed, lpn, ver, size)
}

// devLoad generates and accounts the requests of one device episode.
type devLoad struct {
	c       devConfig
	seed    uint64
	eng     *sim.Engine
	dev     *ssd.Device
	rng     *sim.RNG
	pages   int64
	size    int
	horizon sim.Time

	busy    map[int64]bool // LPNs with a command in flight
	version []uint32       // last version issued per LPN
	acked   []uint32       // last version acknowledged per LPN

	inflight                  int
	attempted, served, window int64
	writes, stale             int64
	readLat, writeLat         latencies
}

// issue sends one random read or write to an LPN with no command in
// flight, and calls next when it settles.
func (l *devLoad) issue(next func()) {
	write := l.rng.Float64() >= l.c.readFrac
	lpn := l.rng.Int63n(l.pages)
	for l.busy[lpn] {
		lpn = l.rng.Int63n(l.pages)
	}
	l.busy[lpn] = true
	l.inflight++
	l.attempted++
	due := l.eng.Now()
	settle := func(ok bool) {
		l.inflight--
		delete(l.busy, lpn)
		now := l.eng.Now()
		if ok {
			l.served++
			if now <= l.horizon {
				l.window++
			}
		}
		next()
	}
	if write {
		ver := l.version[lpn] + 1
		l.version[lpn] = ver
		l.dev.Write(lpn, devPage(l.seed, lpn, ver, l.size), func(err error) {
			if err == nil {
				l.acked[lpn] = ver
				l.writes++
				l.writeLat = append(l.writeLat, int64(l.eng.Now()-due))
			}
			settle(err == nil)
		})
		return
	}
	want := l.acked[lpn]
	l.dev.Read(lpn, func(data []byte, err error) {
		if err == nil {
			if !pageOK(l.seed, lpn, want, data, l.size) {
				l.stale++
			}
			l.readLat = append(l.readLat, int64(l.eng.Now()-due))
		}
		settle(err == nil)
	})
}

// age fills the device sequentially, then overwrites every LPN once in
// random order, at queue depth qd; the aging writes carry no payload.
func (l *devLoad) age() error {
	order := make([]int64, 0, 2*l.pages)
	for lpn := int64(0); lpn < l.pages; lpn++ {
		order = append(order, lpn)
	}
	for _, i := range l.rng.Perm(int(l.pages)) {
		order = append(order, int64(i))
	}
	next, pending := 0, 0
	var werr error
	var pump func()
	pump = func() {
		for pending < l.c.qd && next < len(order) && werr == nil {
			pending++
			l.dev.Write(order[next], nil, func(err error) {
				pending--
				if err != nil && werr == nil {
					werr = err
				}
				pump()
			})
			next++
		}
	}
	pump()
	for pending > 0 || (next < len(order) && werr == nil) {
		if !l.eng.Step() {
			return errors.New("aging stalled")
		}
	}
	return werr
}

// attachProfiler taps every chip's LUN servers, every channel and the
// host link, as the serving fabric does for its devices.
func attachProfiler(dev *ssd.Device) *obs.Profiler {
	p := obs.NewProfiler()
	arr := dev.Array()
	for c := 0; c < arr.Chips(); c++ {
		chip := arr.Chip(c)
		luns := make([]*sim.Server, chip.Geometry().LUNsPerChip)
		for i := range luns {
			luns[i] = chip.LUNServer(i)
		}
		p.Attach(obs.ResChip, fmt.Sprintf("chip%d", c), luns...)
	}
	for c := 0; c < arr.Channels(); c++ {
		p.Attach(obs.ResChannel, fmt.Sprintf("ch%d", c), arr.Channel(c).Server())
	}
	p.Attach(obs.ResLink, "link", dev.Link())
	return p
}

// runDevice runs one device episode: build and age the device, drive
// the window, power-fail it and time the buffer destage, then read every
// LPN back.
func runDevice(c devConfig, seed uint64, traced bool, m *meter) error {
	ep := m.ep
	eng := sim.NewEngine()
	m.setupBegin()
	built, err := ssd.Build(eng, ssd.Enterprise2012, c.opts)
	if err != nil {
		return err
	}
	dev, ok := built.(*ssd.Device)
	if !ok {
		return errors.New("Enterprise2012 is not a flash device")
	}
	pf, err := pageFTL(dev)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	l := &devLoad{
		c: c, seed: seed, eng: eng, dev: dev, rng: rng,
		pages:   dev.Capacity(),
		size:    dev.PageSize(),
		busy:    map[int64]bool{},
		version: make([]uint32, dev.Capacity()),
		acked:   make([]uint32, dev.Capacity()),
	}
	if err := l.age(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	m.setupEnd()

	var prof *obs.Profiler
	if traced {
		prof = attachProfiler(dev)
		prof.Rebase(eng.Now())
	}
	arr := dev.Array()
	programmed0 := arr.PagePrograms + arr.CopyBacks
	ftl0 := pf.Stats()
	readLat0, writeLat0 := dev.Metrics().ReadLat.Clone(), dev.Metrics().WriteLat.Clone()

	start := eng.Now()
	l.horizon = start + c.window
	over := false
	eng.Schedule(l.horizon, func() { over = true })
	var next func()
	next = func() {
		if l.eng.Now() < l.horizon {
			l.issue(next)
		}
	}
	for i := 0; i < c.qd; i++ {
		eng.Schedule(start, next)
	}
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
	var pr obs.Profile
	if prof != nil {
		pr = prof.Snapshot()
	}

	// Power fails at the horizon: the battery-backed buffer must survive
	// (the read-back below checks it) and be destaged to NAND; recovery
	// is the time until the device is flushed.
	dev.Crash()
	flushed := false
	var flushedAt sim.Time
	dev.Flush(func() { flushed, flushedAt = true, eng.Now() })
	for !flushed || l.inflight > 0 {
		if !eng.Step() {
			return errors.New("device never flushed after the window")
		}
	}
	recovery := flushedAt - l.horizon
	ftl1 := pf.Stats()
	programmed1 := arr.PagePrograms + arr.CopyBacks

	// Read every LPN back against the acknowledgement ledger.
	var lost int64
	pending, lpn := 0, int64(0)
	var sweep func()
	sweep = func() {
		for pending < c.qd && lpn < l.pages {
			n := lpn
			pending++
			dev.Read(n, func(data []byte, err error) {
				pending--
				if err != nil || !pageOK(seed, n, l.acked[n], data, l.size) {
					lost++
				}
				sweep()
			})
			lpn++
		}
	}
	sweep()
	for pending > 0 || lpn < l.pages {
		if !eng.Step() {
			return errors.New("read-back sweep stalled")
		}
	}
	if lost > 0 {
		ep.lost += lost
		ep.fail("%d LPNs did not read back their last acknowledged write", lost)
	}

	ep.attempted = l.attempted
	ep.failed = l.attempted - l.served
	ep.served = l.window
	ep.events = events
	v := ep.virt
	v["served_ops_per_vs"] = float64(l.window) / c.window.Seconds()
	v["served_frac"] = ratio(float64(l.served), float64(l.attempted))
	// A raw device has no admission control: every failure is an error.
	v["error_free_frac"] = v["served_frac"]
	ep.info["error_ops"] = metric{float64(l.attempted - l.served), "count"}
	v["write_amp"] = ratio(float64(programmed1-programmed0), float64(l.writes))
	latencyMetrics(ep, l.readLat, l.writeLat)

	lay := ep.layer
	lay["recovery_vms"] = recovery.Millis()
	lay["ssd.stale_reads"] = float64(l.stale)
	layFTL(lay, ftl0, ftl1)
	lay["ssd.read_p99_us"] = float64(dev.Metrics().ReadLat.DeltaFrom(readLat0).P99()) / 1e3
	lay["ssd.write_p99_us"] = float64(dev.Metrics().WriteLat.DeltaFrom(writeLat0).P99()) / 1e3
	for _, k := range kvOnlyLayers {
		lay[k] = 0
	}
	if ftl1.GCMoves == ftl0.GCMoves {
		ep.fail("premise: FTL GC moved no pages in the window")
	}
	if traced {
		layTrace(ep, obs.TraceSnapshot{}, false)
		layProfile(ep, pr)
	}
	return nil
}

// kvOnlyLayers are the per-layer metrics of layers a raw device does
// not have; device-rw reports them as zero work.
var kvOnlyLayers = []string{
	"sched.wait_us_per_req",
	"serve.reject_frac", "serve.deadline_miss_frac", "serve.max_queue",
	"blockdev.cpu_ns_per_op", "kvstore.ops_per_commit", "kvstore.checkpoints",
	"bufpool.hit_rate", "btree.height", "wal.bytes_per_put",
	"pcm.writes_per_put", "pcm.busy_frac", "ssd.reads_per_get",
}
