package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/ktls"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// workload is one named traffic shape. Every trial runs each arm once on
// a fresh world; offered load is fixed in virtual time (saturating
// senders, a fixed I/O depth, or a fixed number of live connections).
type workload struct {
	name string
	why  string
	arms []string
	// seeded workloads draw their fault schedule, I/O mix or jitter from
	// the seed; the others ignore it.
	seeded bool
	run    func(arm string, tc *trialCtx) *armResult
}

var workloads = []workload{
	{
		name: "bulk", arms: []string{"software", "offload"},
		why: "in-sequence fast path: gcm, ktls and NIC batching, few events per packet",
		run: func(arm string, tc *trialCtx) *armResult { return runIperf(bulkShape(), arm, tc) },
	},
	{
		name: "lossy", arms: []string{"software", "offload"}, seeded: true,
		why: "2% sender loss on 48 streams: timers, SACK, reassembly, TX recovery and resync",
		run: func(arm string, tc *trialCtx) *armResult { return runIperf(lossyShape(tc.seed), arm, tc) },
	},
	{
		name: "storage", arms: []string{"software", "offload"}, seeded: true,
		why: "NVMe-TCP 70/30 random I/O over three machines: crc32c, blockdev, nvmetcp",
		run: runStorage,
	},
	{
		name: "churn", arms: []string{"offload"}, seeded: true,
		why: "short TLS connections: set-up, teardown, engine attach and context-cache eviction",
		run: runChurn,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// trialCtx carries one trial's settings into the arms.
type trialCtx struct {
	seed int64
	// rec, when set, makes this a traced trial: boundary spans, short
	// RunFor slices and a CPU profile of each measured phase.
	rec *recorder
	// mem takes allocation and GC deltas over each measured phase.
	mem bool
	// drain stops the load after the measured phase and runs the world
	// down to check teardown: all sent bytes delivered, frame pool empty,
	// no NIC flow state left. Draining the full socket buffers costs more
	// host time than the measured phase on lossy, so a session drains its
	// first trial only; later trials repeat it exactly (same fingerprint).
	drain bool
	// profiles receives each traced measured phase's CPU profile.
	profiles *[][]byte
}

// counts are the simulator's own exact counters, summed over a world's
// machines.
type counts struct {
	pkts, steps          uint64
	polls, polled        uint64
	bells, bellPkts      uint64
	ctxHit, ctxMiss      uint64
	recoveryDMA, retrans uint64
}

func (c counts) sub(o counts) counts {
	return counts{
		pkts: c.pkts - o.pkts, steps: c.steps - o.steps,
		polls: c.polls - o.polls, polled: c.polled - o.polled,
		bells: c.bells - o.bells, bellPkts: c.bellPkts - o.bellPkts,
		ctxHit: c.ctxHit - o.ctxHit, ctxMiss: c.ctxMiss - o.ctxMiss,
		recoveryDMA: c.recoveryDMA - o.recoveryDMA, retrans: c.retrans - o.retrans,
	}
}

func (c *counts) add(o counts) {
	c.pkts += o.pkts
	c.steps += o.steps
	c.polls += o.polls
	c.polled += o.polled
	c.bells += o.bells
	c.bellPkts += o.bellPkts
	c.ctxHit += o.ctxHit
	c.ctxMiss += o.ctxMiss
	c.recoveryDMA += o.recoveryDMA
	c.retrans += o.retrans
}

// world is the part of a topology the measurement reads. stacks[i]
// transmits through nics[i].
type world struct {
	sim    *netsim.Simulator
	nics   []*nic.NIC
	stacks []*tcpip.Stack
}

func (w *world) counts() counts {
	c := counts{steps: w.sim.Steps()}
	for _, n := range w.nics {
		st := n.Stats()
		c.pkts += st.TxPackets + st.RxPackets
		c.polls += st.RxPolls
		c.polled += st.RxPolledFrames
		c.bells += st.TxDoorbells
		c.bellPkts += st.TxDoorbellPackets
		c.ctxHit += st.CtxCacheHits
		c.ctxMiss += st.CtxCacheMiss
		c.recoveryDMA += st.TxRecoveryDMA
	}
	for _, s := range w.stacks {
		c.retrans += s.Stats.Retransmits
	}
	return c
}

// quiesce runs the world until no events remain, within a virtual-time
// bound, and reports whether it got there.
func (w *world) quiesce() bool {
	for i := 0; i < 500 && !w.sim.Quiesced(); i++ {
		w.sim.RunFor(10 * time.Millisecond)
	}
	return w.sim.Quiesced()
}

// armResult is one arm of one trial.
type armResult struct {
	name        string
	fp          fingerprint
	buildS      float64 // host seconds in the world constructor
	establishS  float64 // host seconds in the warm-up before the measured phase
	measureS    float64 // host seconds of the measured phase
	refS        float64 // host seconds of the reference kernel run before the arm
	c           counts  // exact counters over the measured phase
	peakHeap    uint64  // highest live heap after a GC, sampled between slices
	allocs      uint64  // heap allocations over the measured phase (tc.mem)
	allocBytes  uint64
	gcCPU, cpu  float64 // GC and total busy CPU seconds over the measured phase (tc.mem)
	ops, failed uint64
	errs        []string
}

func (a *armResult) fail(n uint64, format string, args ...any) {
	a.failed += n
	if len(a.errs) < 8 {
		a.errs = append(a.errs, a.name+": "+fmt.Sprintf(format, args...))
	}
}

func (a *armResult) pktsPerSec() float64 {
	if a.measureS <= 0 {
		return 0
	}
	return float64(a.c.pkts) / a.measureS
}

// build times the world constructor and, when traced, records its span.
func (tc *trialCtx) build(a *armResult, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	a.buildS = t1.Sub(t0).Seconds()
	tc.rec.add(kBuild, t0, t1)
}

// establish times the warm-up RunFor that precedes the measured phase.
func (tc *trialCtx) establish(a *armResult, w *world, d time.Duration) {
	t0 := time.Now()
	w.sim.RunFor(d)
	t1 := time.Now()
	a.establishS = t1.Sub(t0).Seconds()
	tc.rec.add(kEstablish, t0, t1)
}

// linkEnds is a link and the NICs attached to its A and B sides.
type linkEnds struct {
	link *netsim.Link
	a, b *nic.NIC
}

// tap puts the trace wrappers in front of every NIC: on each link
// endpoint and as each stack's output device. Untraced trials leave the
// world as built.
func (tc *trialCtx) tap(w *world, links ...linkEnds) {
	if tc.rec == nil {
		return
	}
	for _, l := range links {
		l.link.AttachA(linkTap{inner: l.a, r: tc.rec})
		l.link.AttachB(linkTap{inner: l.b, r: tc.rec})
	}
	for i, s := range w.stacks {
		s.SetDevice(devTap{inner: w.nics[i], r: tc.rec})
	}
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readCPU returns the runtime's GC, total and idle CPU-second estimates.
func readCPU() [3]float64 {
	metrics.Read(cpuSamples)
	return [3]float64{cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64(), cpuSamples[2].Value.Float64()}
}

// Slice lengths of the measured phase. Untraced trials sample the live
// heap between slices; traced trials time each slice for ns per event.
const (
	heapSlice  = 100 * time.Microsecond
	traceSlice = 10 * time.Microsecond
)

// measure runs the measured phase: window of virtual time in slices.
func (tc *trialCtx) measure(a *armResult, w *world, window time.Duration) {
	runtime.GC()
	before := w.counts()
	var ms0, ms1 runtime.MemStats
	var cpu0 [3]float64
	if tc.mem {
		runtime.ReadMemStats(&ms0)
		cpu0 = readCPU()
	}
	var prof profileCapture
	if tc.rec != nil {
		if err := prof.start(); err != nil {
			a.fail(0, "cpu profile: %v", err)
		}
		tc.rec.on = true
	}
	end := w.sim.Now() + window
	t0 := time.Now()
	for w.sim.Now() < end {
		d := end - w.sim.Now()
		if tc.rec != nil {
			d = min(d, traceSlice)
			steps := w.sim.Steps()
			s0 := time.Now()
			i := tc.rec.begin(kSlice)
			w.sim.RunFor(d)
			tc.rec.end(i)
			if n := w.sim.Steps() - steps; n > 0 {
				tc.rec.nsPerEvent = append(tc.rec.nsPerEvent, float64(time.Since(s0).Nanoseconds())/float64(n))
			}
			continue
		}
		w.sim.RunFor(min(d, heapSlice))
		metrics.Read(liveHeap)
		if v := liveHeap[0].Value.Uint64(); v > a.peakHeap {
			a.peakHeap = v
		}
	}
	a.measureS = time.Since(t0).Seconds()
	if tc.rec != nil {
		tc.rec.on = false
		*tc.profiles = append(*tc.profiles, prof.stop())
	}
	if tc.mem {
		runtime.ReadMemStats(&ms1)
		cpu1 := readCPU()
		a.allocs = ms1.Mallocs - ms0.Mallocs
		a.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		a.gcCPU = cpu1[0] - cpu0[0]
		a.cpu = (cpu1[1] - cpu0[1]) - (cpu1[2] - cpu0[2])
	}
	a.c = w.counts().sub(before)
}

// plainRef is the sender pattern: the byte at stream offset o is
// byte(o*131). Every writer below writes prefixes whose lengths are
// multiples of 256 (whole 16 KiB records, 4 KiB chunks) except a
// connection's last write, so the pattern holds at any stream offset.
var plainRef = func() []byte {
	b := make([]byte, 256+plainChunk)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

const plainChunk = 64 << 10

// plainCheck compares a received plaintext stream with the pattern.
type plainCheck struct {
	off uint64 // stream bytes checked
	bad uint64 // chunks that differed
}

func (p *plainCheck) feed(data []byte) {
	for len(data) > 0 {
		n := min(len(data), plainChunk)
		s := int(p.off % 256)
		if !bytes.Equal(data[:n], plainRef[s:s+n]) {
			p.bad++
		}
		p.off += uint64(n)
		data = data[n:]
	}
}

// fingerprint is an arm's simulated result: names and exact values.
// Identical inputs must give an identical fingerprint.
type fingerprint []kv

type kv struct{ k, v string }

func (f *fingerprint) u(k string, v uint64) { *f = append(*f, kv{k, strconv.FormatUint(v, 10)}) }
func (f *fingerprint) f(k string, v float64) {
	*f = append(*f, kv{k, strconv.FormatFloat(v, 'g', -1, 64)})
}

func (f fingerprint) String() string {
	var b strings.Builder
	for i, e := range f {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.k + "=" + e.v)
	}
	return b.String()
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// batchAndCache adds the device-level exact ratios of a world's totals.
func (f *fingerprint) batchAndCache(c counts) {
	f.f("rx_frames_per_poll", ratio(c.polled, c.polls))
	f.f("tx_pkts_per_doorbell", ratio(c.bellPkts, c.bells))
	f.f("ctx_hit_rate", ratio(c.ctxHit, c.ctxHit+c.ctxMiss))
}

// iperfShape is a pair-world TLS iperf: saturating senders of 256 KiB
// writes in 16 KiB records.
type iperfShape struct {
	link    netsim.LinkConfig
	nic     nic.Config
	streams int
	// lossRecovery turns on SACK and the datacenter RTO floor of the
	// paper's loss sweeps.
	lossRecovery bool
	warm, window time.Duration
}

// bulkShape is the perf workload of PERF_9.json: a clean 100 Gbps / 2 µs
// pair, 4 RSS queues with 2 µs RX coalescing, 4 streams, 3 ms of warm-up
// and a 2 ms measured window. It has no randomness.
func bulkShape() iperfShape {
	return iperfShape{
		link:    netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond},
		nic:     nic.Config{Queues: 4, RxPollDelay: 2 * time.Microsecond},
		streams: 4,
		warm:    3 * time.Millisecond,
		window:  2 * time.Millisecond,
	}
}

// lossyShape is Fig. 16 at 2% sender-side data loss with the default NIC
// (one queue, no coalescing). The seed drives the loss schedule.
func lossyShape(seed int64) iperfShape {
	return iperfShape{
		link: netsim.LinkConfig{Gbps: 100, Latency: 2 * time.Microsecond,
			AtoB: netsim.FaultConfig{LossProb: 0.02, Seed: seed}},
		streams:      48,
		lossRecovery: true,
		warm:         3 * time.Millisecond,
		window:       4 * time.Millisecond,
	}
}

// runIperf drives one iperf arm. The connection set-up mirrors
// experiments.RunIperf call for call, so the bulk arms reproduce the
// PERF_9.json packet and event counts exactly.
func runIperf(sh iperfShape, arm string, tc *trialCtx) *armResult {
	a := &armResult{name: arm}
	mode := experiments.IperfTLS
	if arm == "offload" {
		mode = experiments.IperfTLSOffload
	}
	var w *experiments.PairWorld
	tc.build(a, func() {
		w = experiments.NewPairWorld(sh.link, sh.nic)
		if sh.lossRecovery {
			w.Model.MinRTOMicros = 2000
			w.Model.MaxRTOMicros = 500000
			w.Gen.Stack.EnableSACK()
			w.Srv.Stack.EnableSACK()
		}
	})
	wv := &world{sim: w.Sim, nics: []*nic.NIC{w.Gen.NIC, w.Srv.NIC},
		stacks: []*tcpip.Stack{w.Gen.Stack, w.Srv.Stack}}
	tc.tap(wv, linkEnds{w.Link, w.Gen.NIC, w.Srv.NIC})

	cliTLS, srvTLS := experiments.TLSKeys(16 << 10)
	var delivered uint64
	var rcvConns []*ktls.Conn
	recv := map[wire.FlowID]*plainCheck{} // keyed by the sender's flow
	sent := map[wire.FlowID]*uint64{}
	stopped := false

	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, srvTLS)
		if err != nil {
			a.fail(1, "server conn: %v", err)
			return
		}
		if mode == experiments.IperfTLSOffload {
			if err := conn.EnableRxOffload(w.Srv.NIC); err != nil {
				a.fail(1, "rx offload: %v", err)
			}
		}
		chk := &plainCheck{}
		recv[s.Flow().Reverse()] = chk
		conn.OnPlain = func(pc ktls.PlainChunk) {
			delivered += uint64(len(pc.Data))
			chk.feed(pc.Data)
		}
		conn.OnError = func(err error) { a.fail(1, "record error: %v", err) }
		rcvConns = append(rcvConns, conn)
	})

	msg := make([]byte, 256<<10)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	for i := 0; i < sh.streams; i++ {
		w.Gen.Stack.Connect(wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}, func(s *tcpip.Socket) {
			conn, err := ktls.NewConn(s, cliTLS)
			if err != nil {
				a.fail(1, "client conn: %v", err)
				return
			}
			if mode == experiments.IperfTLSOffload {
				if err := conn.EnableTxOffload(w.Gen.NIC, false); err != nil {
					a.fail(1, "tx offload: %v", err)
				}
			}
			n := new(uint64)
			sent[s.Flow()] = n
			pump := func(c *ktls.Conn) {
				for !stopped {
					i := tc.rec.begin(kWrite)
					m := c.Write(msg)
					tc.rec.end(i)
					if m == 0 {
						return
					}
					*n += uint64(m)
				}
			}
			conn.OnDrain = pump
			pump(conn)
		})
	}

	tc.establish(a, wv, sh.warm)
	delivered = 0
	var tlsBase ktls.Stats
	for _, c := range rcvConns {
		telemetry.Sum(&tlsBase, c.Stats)
	}
	sndBefore, rcvBefore := w.Gen.Ledger.Clone(), w.Srv.Ledger.Clone()
	tc.measure(a, wv, sh.window)

	var tls ktls.Stats
	for _, c := range rcvConns {
		telemetry.Sum(&tls, c.Stats)
	}
	telemetry.Sub(&tls, tlsBase)
	total := wv.counts()
	a.fp.u("packets", total.pkts)
	a.fp.u("events", total.steps)
	a.fp.u("bytes", delivered)
	a.fp.f("gbps_per_core", w.Model.SingleCoreGbps(cycles.Diff(w.Srv.Ledger, rcvBefore), delivered))
	a.fp.f("snd_gbps_per_core", w.Model.SingleCoreGbps(cycles.Diff(w.Gen.Ledger, sndBefore), delivered))
	a.fp.u("records", tls.RecordsRx)
	a.fp.u("records_offloaded", tls.RxFullyOffloaded)
	a.fp.u("records_partial", tls.RxPartial)
	a.fp.u("records_software", tls.RxUnoffloaded)
	a.fp.u("retransmits", total.retrans)
	a.fp.batchAndCache(total)

	if tc.drain {
		// Stop the writers and drain: every byte a sender handed to ktls
		// must arrive, and every frame must be back in the pool.
		stopped = true
		if !wv.quiesce() {
			a.fail(1, "world did not quiesce after the writers stopped")
		}
		if len(sent) != sh.streams || len(recv) != sh.streams {
			a.fail(1, "%d of %d streams connected", min(len(sent), len(recv)), sh.streams)
		}
		if n := w.Pool.InUse(); n != 0 {
			a.fail(1, "%d frames still out of the pool after draining", n)
		}
	}
	for _, c := range rcvConns {
		a.ops += c.Stats.RecordsRx
	}
	for flow, n := range sent {
		chk := recv[flow]
		switch {
		case chk == nil:
			a.fail(1, "flow %v has no receiver", flow)
		case chk.bad > 0:
			a.fail(chk.bad, "flow %v: %d plaintext chunks differ from the pattern", flow, chk.bad)
		case chk.off > *n || (tc.drain && chk.off != *n):
			a.fail(1, "flow %v: received %d of %d bytes", flow, chk.off, *n)
		}
	}
	return a
}

// Storage shape: 32 outstanding 64 KiB random I/Os, 70% reads, over a
// bounded region of 64 KiB slots; no two in-flight I/Os share a slot.
const (
	ioDepth     = 32
	ioBlocks    = 16 // 64 KiB
	ioSlots     = 64
	readPercent = 70
	storageWarm = 2 * time.Millisecond
	storageWin  = 12 * time.Millisecond
)

// runStorage drives the three-machine NVMe-TCP world without TLS. The
// offload arm places read data and checks its CRC on the server NIC, and
// offloads data digests on both transmit sides. The seed drives the slot
// choice and the read/write mix.
func runStorage(arm string, tc *trialCtx) *armResult {
	a := &armResult{name: arm}
	off := arm == "offload"
	var w *experiments.StorageWorld
	tc.build(a, func() {
		w = experiments.NewStorageWorld(experiments.StorageOpts{
			NVMePlace: off, NVMeCRC: off, TargetTxOffload: off,
		})
		if off {
			w.Host.EnableTxOffload(w.Srv.NIC)
		}
	})
	wv := &world{sim: w.Sim, nics: []*nic.NIC{w.Gen.NIC, w.Srv.NIC, w.Tgt.NIC},
		stacks: []*tcpip.Stack{w.Gen.Stack, w.Srv.Stack, w.Tgt.Stack}}
	tc.tap(wv, linkEnds{w.Front, w.Gen.NIC, w.Srv.NIC}, linkEnds{w.Back, w.Srv.NIC, w.Tgt.NIC})

	const size = ioBlocks * blockdev.BlockSize
	w.Host.WorkingSetBytes = ioDepth * size
	rng := rand.New(rand.NewSource(tc.seed))
	slotGen := make([]uint64, ioSlots) // generation of each slot's content; 0 = never written
	busy := make([]bool, ioSlots)
	var gens uint64
	type readCheck struct {
		slot int
		gen  uint64
		sum  uint64
	}
	var reads []readCheck
	var ios, nReads, nWrites, bytesDone uint64
	inflight := 0
	stopped := false

	var issue func()
	issue = func() {
		if stopped {
			return
		}
		slot := rng.Intn(ioSlots)
		for busy[slot] {
			slot = rng.Intn(ioSlots)
		}
		busy[slot] = true
		inflight++
		lba := uint64(slot * ioBlocks)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.AppPerRequest, 0)
		w.Srv.Ledger.Charge(cycles.HostApp, cycles.Syscall, w.Model.SyscallCost, 0)
		finish := func(err error) {
			busy[slot] = false
			inflight--
			if err != nil {
				a.fail(1, "I/O at slot %d: %v", slot, err)
			}
			w.Srv.Ledger.Charge(cycles.HostApp, cycles.AppWork, w.Model.FioPerIO, 0)
			ios++
			bytesDone += size
			issue()
		}
		if rng.Intn(100) < readPercent {
			buf := make([]byte, size)
			gen := slotGen[slot]
			nReads++
			i := tc.rec.begin(kSubmit)
			w.Host.ReadBlocks(lba, ioBlocks, buf, func(err error) {
				reads = append(reads, readCheck{slot, gen, hash64(buf)})
				finish(err)
			})
			tc.rec.end(i)
			return
		}
		gens++
		gen := gens
		nWrites++
		i := tc.rec.begin(kSubmit)
		w.Host.WriteBlocks(lba, writeData(tc.seed, gen), func(err error) {
			slotGen[slot] = gen
			finish(err)
		})
		tc.rec.end(i)
	}
	for i := 0; i < ioDepth; i++ {
		issue()
	}

	tc.establish(a, wv, storageWarm)
	ios0, bytes0, reads0, writes0 := ios, bytesDone, nReads, nWrites
	before := w.Srv.Ledger.Clone()
	tc.measure(a, wv, storageWin)
	total := wv.counts()
	a.fp.u("packets", total.pkts)
	a.fp.u("events", total.steps)
	a.fp.u("ios", ios-ios0)
	a.fp.u("reads_issued", nReads-reads0)
	a.fp.u("writes_issued", nWrites-writes0)
	a.fp.u("bytes", bytesDone-bytes0)
	a.fp.f("gbps_per_core", w.Model.SingleCoreGbps(cycles.Diff(w.Srv.Ledger, before), bytesDone-bytes0))
	a.fp.u("bytes_placed", w.Host.Stats.BytesPlaced)
	a.fp.u("crc_skipped", w.Host.Stats.CRCSkipped)
	a.fp.u("retransmits", total.retrans)
	a.fp.batchAndCache(total)

	// Stop issuing, let in-flight I/O finish, then check every read
	// against the device's content and every written slot's final state.
	stopped = true
	for i := 0; i < 1000 && inflight > 0; i++ {
		w.Sim.RunFor(time.Millisecond)
	}
	if inflight > 0 {
		a.fail(uint64(inflight), "%d I/Os never completed", inflight)
	}
	if !wv.quiesce() {
		a.fail(1, "world did not quiesce after the last I/O")
	}
	a.ops = ios
	if w.Host.Stats.DigestErrors+w.Host.Stats.FramingErrors > 0 {
		a.fail(1, "nvme digest errors %d, framing errors %d", w.Host.Stats.DigestErrors, w.Host.Stats.FramingErrors)
	}
	want := map[[2]uint64]uint64{}
	expect := func(slot int, gen uint64) uint64 {
		k := [2]uint64{uint64(slot), gen}
		if h, ok := want[k]; ok {
			return h
		}
		var h uint64
		if gen == 0 {
			b := make([]byte, size)
			for i := 0; i < ioBlocks; i++ {
				blockdev.Pattern(uint64(slot*ioBlocks+i), 0, b[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize])
			}
			h = hash64(b)
		} else {
			h = hash64(writeData(tc.seed, gen))
		}
		want[k] = h
		return h
	}
	for _, r := range reads {
		if r.sum != expect(r.slot, r.gen) {
			a.fail(1, "read of slot %d (generation %d) differs from the device content", r.slot, r.gen)
		}
	}
	for slot, gen := range slotGen {
		b := make([]byte, 0, size)
		for i := 0; i < ioBlocks; i++ {
			b = append(b, w.Dev.BlockContent(uint64(slot*ioBlocks+i))...)
		}
		if hash64(b) != expect(slot, gen) {
			a.fail(1, "slot %d holds the wrong content after the run (generation %d)", slot, gen)
		}
	}
	if n := w.Pool.InUse(); n != 0 {
		a.fail(1, "%d frames still out of the pool after draining", n)
	}
	return a
}

// writeData is the content of write generation gen: 64-bit words from a
// splitmix64 sequence keyed by seed and generation.
func writeData(seed int64, gen uint64) []byte {
	b := make([]byte, ioBlocks*blockdev.BlockSize)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ gen*0xD1B54A32D192ED03
	for i := 0; i < len(b); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
	return b
}

// hash64 is FNV-1a over 64-bit words: cheap enough to run at every read
// completion, strong enough to tell any two of the benchmark's blocks apart.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i+8 <= len(b); i += 8 {
		w := uint64(b[i]) | uint64(b[i+1])<<8 | uint64(b[i+2])<<16 | uint64(b[i+3])<<24 |
			uint64(b[i+4])<<32 | uint64(b[i+5])<<40 | uint64(b[i+6])<<48 | uint64(b[i+7])<<56
		h = (h ^ w) * 1099511628211
	}
	return h
}

// Churn shape: experiments.RunChurn's front end with 96 live slots of
// ~24 KiB TLS connections (±50%), RX offload on 4 queues with 2 µs RX
// coalescing, a 64-flow context cache and 0.5% data loss.
const (
	churnSlots    = 96
	churnBytes    = 24 << 10
	churnQueues   = 4
	churnCache    = 64
	churnLoss     = 0.005
	churnWarm     = 1 * time.Millisecond
	churnWin      = 3 * time.Millisecond
	churnWatchdog = 600 * time.Microsecond
	// churnPollDelay is the 2 µs RX coalescing window of the bulk shape:
	// without it four queues at this load poll one frame at a time, and
	// churn would not exercise NIC batching.
	churnPollDelay = 2 * time.Microsecond
)

// runChurn drives the churn front end: each slot opens a TLS connection,
// pushes its bytes with TX offload, closes, and is replaced at once. The
// seed drives arrival jitter, connection sizes and the loss schedule.
func runChurn(arm string, tc *trialCtx) *armResult {
	a := &armResult{name: arm}
	var w *experiments.PairWorld
	tc.build(a, func() {
		w = experiments.NewPairWorld(netsim.LinkConfig{
			Gbps: 100, Latency: 2 * time.Microsecond,
			AtoB: netsim.FaultConfig{LossProb: churnLoss, Seed: tc.seed},
		}, nic.Config{Queues: churnQueues, CtxCacheFlows: churnCache, RxPollDelay: churnPollDelay})
		w.Model.MinRTOMicros = 2000
		w.Model.MaxRTOMicros = 500000
		w.Gen.Stack.EnableSACK()
		w.Srv.Stack.EnableSACK()
	})
	wv := &world{sim: w.Sim, nics: []*nic.NIC{w.Gen.NIC, w.Srv.NIC},
		stacks: []*tcpip.Stack{w.Gen.Stack, w.Srv.Stack}}
	tc.tap(wv, linkEnds{w.Link, w.Gen.NIC, w.Srv.NIC})

	rng := rand.New(rand.NewSource(tc.seed + 19))
	cliTLS, srvTLS := experiments.TLSKeys(0)
	end := w.Sim.Now() + churnWarm + churnWin
	var delivered, conns, closed uint64
	var srvConns []*ktls.Conn
	want := map[wire.FlowID]uint64{} // bytes each sender pushed, by sender flow

	w.Srv.Stack.Listen(5001, func(s *tcpip.Socket) {
		conn, err := ktls.NewConn(s, srvTLS)
		if err != nil {
			a.fail(1, "server conn: %v", err)
			return
		}
		if err := conn.EnableRxOffload(w.Srv.NIC); err != nil {
			a.fail(1, "rx offload: %v", err)
		}
		chk := &plainCheck{}
		conn.OnPlain = func(pc ktls.PlainChunk) {
			delivered += uint64(len(pc.Data))
			chk.feed(pc.Data)
		}
		conn.OnError = func(err error) { a.fail(1, "record error: %v", err) }
		conn.OnClose = func(c *ktls.Conn) {
			c.DisableRxOffload()
			s.Close()
			closed++
			flow := s.Flow().Reverse()
			switch {
			case chk.bad > 0:
				a.fail(1, "conn %v: %d plaintext chunks differ from the pattern", flow, chk.bad)
			case chk.off != want[flow]:
				a.fail(1, "conn %v: received %d of %d bytes", flow, chk.off, want[flow])
			}
		}
		srvConns = append(srvConns, conn)
	})

	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	addr := wire.Addr{IP: w.Srv.Stack.IP(), Port: 5001}
	type slot struct{ sock *tcpip.Socket }
	var spawn func(sl *slot)
	spawn = func(sl *slot) {
		if w.Sim.Now() >= end {
			sl.sock = nil
			return
		}
		total := churnBytes/2 + rng.Intn(churnBytes)
		var sock *tcpip.Socket
		sock = w.Gen.Stack.Connect(addr, func(s *tcpip.Socket) {
			if sl.sock != s {
				// The handshake watchdog already replaced this connection.
				s.Close()
				return
			}
			conn, err := ktls.NewConn(s, cliTLS)
			if err != nil {
				a.fail(1, "client conn: %v", err)
				return
			}
			if err := conn.EnableTxOffload(w.Gen.NIC, false); err != nil {
				a.fail(1, "tx offload: %v", err)
			}
			remaining := total
			pump := func(c *ktls.Conn) {
				for remaining > 0 {
					chunk := msg[:min(remaining, len(msg))]
					i := tc.rec.begin(kWrite)
					n := c.Write(chunk)
					tc.rec.end(i)
					if n == 0 {
						return
					}
					remaining -= n
					want[s.Flow()] += uint64(n)
				}
				c.OnDrain = nil
				c.Socket().Close()
			}
			conn.OnDrain = pump
			s.OnClose = func(s *tcpip.Socket) {
				conn.DisableTxOffload()
				if sl.sock == s {
					if w.Sim.Now() < end {
						conns++
					}
					spawn(sl)
				}
			}
			pump(conn)
		})
		sl.sock = sock
		w.Sim.After(churnWatchdog, func() {
			if sl.sock == sock && !sock.Established() && w.Sim.Now() < end {
				spawn(sl)
			}
		})
	}
	for i := 0; i < churnSlots; i++ {
		sl := &slot{}
		w.Sim.After(time.Duration(rng.Intn(100))*time.Microsecond, func() { spawn(sl) })
	}

	tc.establish(a, wv, churnWarm)
	conns0, delivered0 := conns, delivered
	var tlsBase ktls.Stats
	for _, c := range srvConns {
		telemetry.Sum(&tlsBase, c.Stats)
	}
	tc.measure(a, wv, churnWin)
	var tls ktls.Stats
	for _, c := range srvConns {
		telemetry.Sum(&tls, c.Stats)
	}
	telemetry.Sub(&tls, tlsBase)
	total := wv.counts()
	a.fp.u("packets", total.pkts)
	a.fp.u("events", total.steps)
	a.fp.u("conns", conns-conns0)
	a.fp.u("bytes", delivered-delivered0)
	a.fp.u("records", tls.RecordsRx)
	a.fp.u("records_offloaded", tls.RxFullyOffloaded)
	a.fp.u("records_partial", tls.RxPartial)
	a.fp.u("records_software", tls.RxUnoffloaded)
	a.fp.u("retransmits", total.retrans)
	a.fp.batchAndCache(total)

	// Drain until no NIC holds state for any flow; a closed peer may keep
	// retransmitting a FIN on its capped RTO, so the simulator itself need
	// not quiesce (see experiments.RunChurn).
	drained := func() bool {
		for _, n := range wv.nics {
			if n.CacheLen() > 0 {
				return false
			}
			for i := 0; i < n.NumQueues(); i++ {
				tx, rx := n.Queue(i).EngineFlows()
				if tx+rx+n.Queue(i).HarvestPending() > 0 {
					return false
				}
			}
		}
		return true
	}
	a.ops = closed
	if !tc.drain {
		return a
	}
	for i := 0; i < 1000 && !drained(); i++ {
		w.Sim.RunFor(2 * time.Millisecond)
	}
	leaked := 0
	for _, n := range wv.nics {
		leaked += n.CacheLen()
		for i := 0; i < n.NumQueues(); i++ {
			tx, rx := n.Queue(i).EngineFlows()
			leaked += tx + rx + n.Queue(i).HarvestPending()
		}
	}
	if leaked != 0 {
		a.fail(1, "%d NIC flow states leaked after draining", leaked)
	}
	a.ops = closed
	return a
}
