package main

import (
	"strings"
	"testing"
)

// trialFingerprints runs one trial of a workload and returns each arm's
// fingerprint, failing the test on any correctness check.
func trialFingerprints(t *testing.T, wl *workload, tc *trialCtx) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, a := range runTrial(wl, tc) {
		if a.failed > 0 || len(a.errs) > 0 {
			t.Fatalf("%s/%s seed %d: %d failed: %v", wl.name, a.name, tc.seed, a.failed, a.errs)
		}
		if a.ops == 0 {
			t.Fatalf("%s/%s seed %d: no operations", wl.name, a.name, tc.seed)
		}
		out[a.name] = a.fp.String()
	}
	return out
}

func traced(seed int64) *trialCtx {
	var profiles [][]byte
	return &trialCtx{seed: seed, rec: newRecorder(), profiles: &profiles, drain: true}
}

// TestTracingKeepsFingerprint: the trace wrappers, slicing and profiler
// must not change the simulation, on every workload.
func TestTracingKeepsFingerprint(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		plain := trialFingerprints(t, wl, &trialCtx{seed: 1, drain: true})
		tc := traced(1)
		tr := trialFingerprints(t, wl, tc)
		for arm, fp := range plain {
			if tr[arm] != fp {
				t.Errorf("%s/%s: traced fingerprint differs\n  traced   %s\n  untraced %s", wl.name, arm, tr[arm], fp)
			}
		}
		if len(tc.rec.self[kDeliver]) == 0 || len(tc.rec.self[kTransmit]) == 0 || len(tc.rec.nsPerEvent) == 0 {
			t.Errorf("%s: traced trial recorded no deliver/transmit spans or slices", wl.name)
		}
		if len(*tc.profiles) != len(wl.arms) {
			t.Errorf("%s: %d CPU profiles for %d arms", wl.name, len(*tc.profiles), len(wl.arms))
		}
		var ls layerSamples
		for _, p := range *tc.profiles {
			if err := ls.add(p); err != nil {
				t.Errorf("%s: %v", wl.name, err)
			}
		}
	}
}

// TestSeeds: a seed reproduces its fingerprint exactly, a different seed
// changes the seeded workloads' fingerprints, and every check passes on
// both seeds. bulk has no randomness.
func TestSeeds(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a := trialFingerprints(t, wl, &trialCtx{seed: 1, drain: true})
		again := trialFingerprints(t, wl, &trialCtx{seed: 1, drain: true})
		other := trialFingerprints(t, wl, &trialCtx{seed: 2, drain: true})
		for arm := range a {
			if again[arm] != a[arm] {
				t.Errorf("%s/%s: seed 1 gave two fingerprints\n  %s\n  %s", wl.name, arm, a[arm], again[arm])
			}
			if wl.seeded && other[arm] == a[arm] {
				t.Errorf("%s/%s: seeds 1 and 2 gave the same fingerprint %s", wl.name, arm, a[arm])
			}
			if !wl.seeded && other[arm] != a[arm] {
				t.Errorf("%s/%s: unseeded workload depends on the seed", wl.name, arm)
			}
		}
	}
}

// TestBulkMatchesPerf9 pins bulk to the sim.* values of PERF_9.json.
func TestBulkMatchesPerf9(t *testing.T) {
	fp := trialFingerprints(t, findWorkload("bulk"), &trialCtx{seed: 1, drain: true})
	want := map[string][]string{
		"software": {"packets=129372", "events=71544", "gbps_per_core=6.402756926885004",
			"rx_frames_per_poll=12.479410577311263", "tx_pkts_per_doorbell=13.629741727199354"},
		"offload": {"packets=129372", "events=71544", "gbps_per_core=16.86121098277657",
			"rx_frames_per_poll=12.479410577311263", "tx_pkts_per_doorbell=13.629741727199354"},
	}
	for arm, fields := range want {
		have := " " + fp[arm] + " "
		for _, f := range fields {
			if !strings.Contains(have, " "+f+" ") {
				t.Errorf("bulk/%s: want %s in %s", arm, f, fp[arm])
			}
		}
	}
}

// TestExpectedCommitted: the committed fingerprints cover every workload
// and match a fresh trial.
func TestExpectedCommitted(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		exp := expectedFor(wl.name, 3)
		if len(exp) != len(wl.arms) {
			t.Fatalf("%s: committed fingerprints for %d of %d arms", wl.name, len(exp), len(wl.arms))
		}
		for arm, fp := range trialFingerprints(t, wl, &trialCtx{seed: 3, drain: true}) {
			if !fingerprintMatches(fp, exp[arm]) {
				t.Errorf("%s/%s seed 3: fingerprint %s does not match the committed %s", wl.name, arm, fp, exp[arm])
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/gcm.(*Stream).transform":      "gcm",
		"crypto/internal/fips140/aes.encryptBlockAsm": "gcm",
		"container/heap.Pop":                          "netsim",
		"repro/internal/netsimx.Run":                  "other",
		"runtime.memmove":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "runtime",
		"encoding/binary.bigEndian.Uint16":            "wire",
		"hash/crc32.ieeeCLMUL":                        "crc32c",
		"repro/internal/experiments.NewPairWorld":     "other",
	} {
		got := "other"
		if i := layerOf(fn); i < len(layers) {
			got = layers[i].name
		}
		if got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestHostScale: the end-to-end times and rates are scaled by the median
// reference-kernel time over refNominalS, and nothing else.
func TestHostScale(t *testing.T) {
	arm := func(refS float64) *armResult {
		return &armResult{refS: refS, measureS: 0.5, buildS: 0.1, establishS: 0.3, c: counts{pkts: 1000}}
	}
	s := &session{
		trials: [][]*armResult{{arm(refNominalS), arm(2 * refNominalS)}, {arm(2 * refNominalS), arm(3 * refNominalS)}},
		traced: []bool{false, false},
	}
	if k := s.hostScale(); k != 2 {
		t.Fatalf("hostScale = %g, want 2", k)
	}
	m := s.endToEndMetrics()
	if v := m["pkts_per_s"].Value; v != 2*2000 {
		t.Errorf("pkts_per_s = %g, want %g", v, 2*2000.0)
	}
	if v := m["setup_s"].Value; v != 0.8/2 {
		t.Errorf("setup_s = %g, want %g", v, 0.8/2)
	}
}
