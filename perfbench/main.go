// Command perfbench measures how fast the simulator itself runs: host
// time per simulated NIC packet on four traffic shapes (bulk, lossy,
// storage, churn), with each trial's simulated results checked as the
// correctness fingerprint. See README.md for the workloads and metrics.
//
//	perfbench --workload bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end ones with --trace 0,
// per-layer ones from a traced run with --trace 1). Diagnostics go to
// standard error. A failed check exits 1 after printing the result.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk, lossy, storage or churn")
	seed := fs.Int64("seed", 1, "workload seed (fault schedule, I/O mix, churn jitter)")
	seconds := fs.Float64("seconds", 10, "host seconds of trials to run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	writeExp := fs.String("write-expected", "", "regenerate the expected fingerprints into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl := findWorkload(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload bulk|lossy|storage|churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	s := runSession(wl, *seed, *seconds, *trace == 1)
	var metrics map[string]metric
	if *trace == 1 {
		metrics = s.layerMetrics()
		dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", wl.name, *seed))
		if err := s.writeTrace(dir); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
		} else {
			fmt.Fprintln(stderr, "perfbench: spans and CPU profiles in", dir)
		}
	} else {
		metrics = s.endToEndMetrics()
	}
	out := result{Correct: s.failed == 0 && len(s.errs) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
	s.report(stderr)
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one run: trials until the host-time budget is spent. A
// traced session mixes untraced trials (allocation and GC deltas) with
// traced ones (spans and CPU profile).
type session struct {
	wl        *workload
	seed      int64
	trials    [][]*armResult
	traced    []bool
	rec       *recorder
	profiles  [][]byte
	attempted uint64
	failed    uint64
	errs      []string
	// uncommitted: no expected fingerprint exists for this seed, so only
	// trial-to-trial identity was checked.
	uncommitted bool
}

func runSession(wl *workload, seed int64, seconds float64, traced bool) *session {
	s := &session{wl: wl, seed: seed}
	if traced {
		s.rec = newRecorder()
	}
	exp := expectedFor(wl.name, seed)
	first := map[string]string{}
	start := time.Now()
	for i := 0; ; i++ {
		tc := &trialCtx{seed: seed, profiles: &s.profiles, drain: i == 0}
		// A traced session spends three of four trials traced, for
		// profile samples; the rest give allocation, GC and overhead
		// figures undisturbed by tracing.
		isTraced := traced && i%4 != 0
		if isTraced {
			tc.rec = s.rec
			s.rec.reset()
		} else if traced {
			tc.mem = true
		}
		arms := runTrial(wl, tc)
		for _, a := range arms {
			fp := a.fp.String()
			want, ok := exp[a.name]
			source := fmt.Sprintf("the committed value for seed %d", seed)
			if !ok {
				if _, seen := first[a.name]; !seen {
					first[a.name] = fp
				}
				want, source = first[a.name], "the first trial's"
			}
			if !fingerprintMatches(fp, want) {
				a.fail(0, "fingerprint differs from %s:\n  got  %s\n  want %s", source, fp, want)
				a.failed = a.ops
			}
			if a.failed > a.ops {
				a.ops = a.failed
			}
			s.attempted += a.ops
			s.failed += a.failed
			s.errs = append(s.errs, a.errs...)
		}
		s.trials = append(s.trials, arms)
		s.traced = append(s.traced, isTraced)
		done := time.Since(start).Seconds() >= seconds
		if done && (!traced || len(s.trials) >= 2) {
			break
		}
	}
	s.uncommitted = exp == nil
	return s
}

// runTrial runs every arm of the workload once, each on a fresh world.
func runTrial(wl *workload, tc *trialCtx) []*armResult {
	var out []*armResult
	for i, arm := range wl.arms {
		if tc.rec != nil {
			tc.rec.arm = uint8(i)
		}
		runtime.GC()
		ref := referenceS()
		runtime.GC()
		a := wl.run(arm, tc)
		a.refS = ref
		out = append(out, a)
	}
	return out
}

// trialsOf returns the trials of one kind (traced or not).
func (s *session) trialsOf(traced bool) [][]*armResult {
	var out [][]*armResult
	for i, t := range s.trials {
		if s.traced[i] == traced {
			out = append(out, t)
		}
	}
	return out
}

func pktsPerSec(arms []*armResult) float64 {
	var pkts uint64
	var secs float64
	for _, a := range arms {
		pkts += a.c.pkts
		secs += a.measureS
	}
	if secs <= 0 {
		return 0
	}
	return float64(pkts) / secs
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perTrial maps each trial to one value and returns them.
func perTrial(trials [][]*armResult, fn func([]*armResult) float64) []float64 {
	var v []float64
	for _, t := range trials {
		v = append(v, fn(t))
	}
	return v
}

func setupS(arms []*armResult) float64 {
	var s float64
	for _, a := range arms {
		s += a.buildS + a.establishS
	}
	return s
}

func peakHeapMB(arms []*armResult) float64 {
	var p uint64
	for _, a := range arms {
		p = max(p, a.peakHeap)
	}
	return float64(p) / 1e6
}

// hostScale is the median reference-kernel time of the session over
// refNominalS: above 1 the host ran slower than the nominal one. Host
// times are divided by it and rates multiplied, so that the metrics read
// as on the nominal host.
func (s *session) hostScale() float64 {
	var v []float64
	for _, t := range s.trials {
		for _, a := range t {
			v = append(v, a.refS)
		}
	}
	return median(v) / refNominalS
}

func (s *session) endToEndMetrics() map[string]metric {
	t := s.trialsOf(false)
	k := s.hostScale()
	return map[string]metric{
		"pkts_per_s":   {median(perTrial(t, pktsPerSec)) * k, "1/s"},
		"setup_s":      {median(perTrial(t, setupS)) / k, "s"},
		"peak_heap_mb": {median(perTrial(t, peakHeapMB)), "MB"},
	}
}

// layerMetrics derives the per-layer metrics of a traced session.
func (s *session) layerMetrics() map[string]metric {
	plain, traced := s.trialsOf(false), s.trialsOf(true)
	var all, mem counts
	var allocs, allocBytes uint64
	var gcCPU, cpu float64
	for i, t := range s.trials {
		for _, a := range t {
			all.add(a.c)
			if !s.traced[i] {
				mem.add(a.c)
				allocs += a.allocs
				allocBytes += a.allocBytes
				gcCPU += a.gcCPU
				cpu += a.cpu
			}
		}
	}
	var ls layerSamples
	for _, p := range s.profiles {
		if err := ls.add(p); err != nil {
			s.errs = append(s.errs, err.Error())
		}
	}
	frac := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	r := s.rec
	k := s.hostScale()
	m := map[string]metric{
		"runtime.allocs_per_pkt":            {frac(float64(allocs), float64(mem.pkts)), "count"},
		"runtime.alloc_bytes_per_pkt":       {frac(float64(allocBytes), float64(mem.pkts)), "B"},
		"runtime.gc_cpu_frac":               {frac(gcCPU, cpu), "frac"},
		"runtime.copy_cpu_frac":             {ls.frac(ls.copy), "frac"},
		"netsim.events_per_pkt":             {frac(float64(all.steps), float64(all.pkts)), "count"},
		"netsim.ns_per_event.p50":           {quantile(r.nsPerEvent, 0.5), "ns"},
		"netsim.ns_per_event.p99":           {quantile(r.nsPerEvent, 0.99), "ns"},
		"nic.rx_frames_per_poll":            {ratio(all.polled, all.polls), "count"},
		"nic.tx_pkts_per_doorbell":          {ratio(all.bellPkts, all.bells), "count"},
		"nic.ctx_hit_rate":                  {ratio(all.ctxHit, all.ctxHit+all.ctxMiss), "frac"},
		"nic.deliver_ns.p50":                {quantile(r.self[kDeliver], 0.5), "ns"},
		"nic.transmit_ns.p50":               {quantile(r.self[kTransmit], 0.5), "ns"},
		"offload.tx_recovery_bytes_per_pkt": {ratio(all.recoveryDMA, all.pkts), "B"},
		"tcpip.retransmits_per_kpkt":        {1000 * ratio(all.retrans, all.pkts), "count"},
		"ktls.write_ns.p50":                 {quantile(r.self[kWrite], 0.5), "ns"},
		"ktls.write_ns.p99":                 {quantile(r.self[kWrite], 0.99), "ns"},
		"nvmetcp.submit_ns.p50":             {quantile(r.self[kSubmit], 0.5), "ns"},
		"experiments.build_s":               {median(perTrial(traced, func(t []*armResult) float64 { return sumOf(t, func(a *armResult) float64 { return a.buildS }) })) / k, "s"},
		"experiments.establish_s":           {median(perTrial(traced, func(t []*armResult) float64 { return sumOf(t, func(a *armResult) float64 { return a.establishS }) })) / k, "s"},
		"trace.overhead_frac":               {frac(median(perTrial(traced, pktsPerSec)), median(perTrial(plain, pktsPerSec))) - 1, "frac"},
		"profile.samples":                   {float64(ls.total), "count"},
	}
	for _, arm := range []string{"software", "offload"} {
		m["arm."+arm+".pkts_per_s"] = metric{k * median(perTrial(plain, func(t []*armResult) float64 {
			for _, a := range t {
				if a.name == arm {
					return a.pktsPerSec()
				}
			}
			return 0
		})), "1/s"}
	}
	for i, l := range layers {
		m[l.name+".cpu_frac"] = metric{ls.frac(ls.counts[i]), "frac"}
	}
	m["other.cpu_frac"] = metric{ls.frac(ls.counts[len(layers)]), "frac"}
	return m
}

func sumOf(arms []*armResult, fn func(*armResult) float64) float64 {
	var s float64
	for _, a := range arms {
		s += fn(a)
	}
	return s
}

// writeTrace writes the latest traced trial's spans and every measured
// phase's CPU profile (merge them with `go tool pprof`).
func (s *session) writeTrace(dir string) error {
	if s.rec == nil {
		return nil
	}
	if err := s.rec.writeSpans(filepath.Join(dir, "spans.csv"), s.wl.arms); err != nil {
		return err
	}
	for i, p := range s.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%02d.pb.gz", i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// report prints the per-trial figures (as measured, not scaled), the
// host scale, fingerprints and failures.
func (s *session) report(w io.Writer) {
	for i, t := range s.trials {
		kind := "untraced"
		if s.traced[i] {
			kind = "traced"
		}
		fmt.Fprintf(w, "trial %d (%s): %.0f pkts/s, setup %.3fs, peak heap %.1f MB, reference kernel %.3f ms\n",
			i, kind, pktsPerSec(t), setupS(t), peakHeapMB(t), 1000*sumOf(t, func(a *armResult) float64 { return a.refS })/float64(len(t)))
		for _, a := range t {
			fmt.Fprintf(w, "  %s: %.0f pkts/s over %.3fs\n", a.name, a.pktsPerSec(), a.measureS)
		}
	}
	if len(s.trials) > 0 {
		fmt.Fprintf(w, "reference kernel: median %.3f ms, host scale %.3f\n", 1000*s.hostScale()*refNominalS, s.hostScale())
		for _, a := range s.trials[0] {
			fmt.Fprintf(w, "fingerprint %s/%s: %s\n", s.wl.name, a.name, a.fp)
		}
	}
	if s.uncommitted {
		fmt.Fprintf(w, "no committed fingerprint for %s seed %d; checked trial-to-trial identity only\n", s.wl.name, s.seed)
	}
	for _, e := range s.errs {
		fmt.Fprintln(w, "FAIL", e)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations)\n", ratio(s.failed, s.attempted), s.failed, s.attempted)
}

// Expected fingerprints. bulk has no randomness and keeps its full
// fingerprint, which must equal PERF_9.json's sim.* values; the seeded
// workloads keep a digest per seed for seeds 0..expectedSeeds-1.

//go:embed expected.json
var expectedJSON []byte

const expectedSeeds = 64

type expectedFile struct {
	Full    map[string]map[string]string   `json:"full"`    // workload → arm → fingerprint
	Digests map[string]map[string][]string `json:"digests"` // workload → arm → digest by seed
}

func digest(fp string) string {
	h := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(h[:8])
}

// fingerprintMatches compares a fingerprint with a committed full value
// or digest.
func fingerprintMatches(fp, want string) bool {
	return fp == want || digest(fp) == want
}

// expectedFor returns the committed fingerprint (or digest) of each arm
// of a workload at a seed, or nil when none is committed.
func expectedFor(name string, seed int64) map[string]string {
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return nil
	}
	if full, ok := ef.Full[name]; ok {
		return full
	}
	arms, ok := ef.Digests[name]
	if !ok || seed < 0 {
		return nil
	}
	out := map[string]string{}
	for arm, d := range arms {
		if seed < int64(len(d)) {
			out[arm] = d[seed]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// writeExpected runs one untraced trial of every workload (per seed for
// the seeded ones) and writes the fingerprints the checks compare with.
func writeExpected(path string, log io.Writer) error {
	ef := expectedFile{Full: map[string]map[string]string{}, Digests: map[string]map[string][]string{}}
	for i := range workloads {
		wl := &workloads[i]
		if !wl.seeded {
			ef.Full[wl.name] = map[string]string{}
			for _, a := range runTrial(wl, &trialCtx{seed: 0, drain: true}) {
				if a.failed > 0 {
					return fmt.Errorf("%s/%s: %v", wl.name, a.name, a.errs)
				}
				ef.Full[wl.name][a.name] = a.fp.String()
			}
			continue
		}
		ef.Digests[wl.name] = map[string][]string{}
		for seed := int64(0); seed < expectedSeeds; seed++ {
			for _, a := range runTrial(wl, &trialCtx{seed: seed, drain: true}) {
				if a.failed > 0 {
					return fmt.Errorf("%s/%s seed %d: %v", wl.name, a.name, seed, a.errs)
				}
				ef.Digests[wl.name][a.name] = append(ef.Digests[wl.name][a.name], digest(a.fp.String()))
			}
			fmt.Fprintf(log, "%s seed %d done\n", wl.name, seed)
		}
	}
	b, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
