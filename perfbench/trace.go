package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpip"
	"repro/internal/wire"
)

// spanKind names a layer boundary the benchmark wraps.
type spanKind uint8

const (
	kBuild     spanKind = iota // world constructor
	kEstablish                 // warm-up RunFor before the measured phase
	kSlice                     // one short RunFor slice of the measured phase
	kDeliver                   // link endpoint → nic.DeliverFrame
	kTransmit                  // tcpip stack device → nic.Transmit
	kWrite                     // application → ktls.Conn.Write
	kSubmit                    // application → nvmetcp ReadBlocks/WriteBlocks
	numKinds
)

var kindNames = [numKinds]string{
	"experiments.build", "experiments.establish", "netsim.slice",
	"nic.deliver", "nic.transmit", "ktls.write", "nvmetcp.submit",
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; child is the time covered by direct children, so the span's
// self time is end-start-child.
type span struct {
	kind       spanKind
	arm        uint8
	parent     int32
	start, end int64
	child      int64
}

// recorder keeps the spans of one traced trial in memory. Only the
// measured phase records boundary spans (on); build and establish are
// added whole. Self times of every traced trial accumulate in self for
// the percentiles; the spans themselves are kept for the latest trial and
// written out when the run ends.
type recorder struct {
	epoch      time.Time
	on         bool
	arm        uint8
	spans      []span
	open       []int32
	self       [numKinds][]float64 // self times in ns
	nsPerEvent []float64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reset starts a new trial's span list; accumulated self times stay.
func (r *recorder) reset() {
	r.spans = r.spans[:0]
	r.open = r.open[:0]
	r.arm = 0
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span; it returns -1 (a no-op for end) when r is nil or
// not recording.
func (r *recorder) begin(k spanKind) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{kind: k, arm: r.arm, parent: parent, start: r.now()})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.end = r.now()
	r.open = r.open[:len(r.open)-1]
	d := s.end - s.start
	if s.parent >= 0 {
		r.spans[s.parent].child += d
	}
	r.self[s.kind] = append(r.self[s.kind], float64(d-s.child))
}

// add records a whole top-level span measured by the caller.
func (r *recorder) add(k spanKind, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{kind: k, arm: r.arm, parent: -1,
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch))}
	r.spans = append(r.spans, s)
	r.self[k] = append(r.self[k], float64(s.end-s.start))
}

func rank(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile returns the q-quantile (nearest rank) of v, or 0 for none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// writeSpans writes the latest traced trial's spans as CSV.
func (r *recorder) writeSpans(path string, armNames []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,arm,kind,parent,start_ns,end_ns,self_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%d,%d\n", i, armNames[s.arm], kindNames[s.kind],
			s.parent, s.start, s.end, s.end-s.start-s.child)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkTap is the link endpoint installed in front of a NIC: it times
// DeliverFrame and forwards the wire-latency note the link sends just
// before each delivery, so the NIC sees the same call sequence as
// without the tap.
type linkTap struct {
	inner netsim.Endpoint
	r     *recorder
}

func (t linkTap) DeliverFrame(f wire.Frame) {
	i := t.r.begin(kDeliver)
	t.inner.DeliverFrame(f)
	t.r.end(i)
}

func (t linkTap) NoteWireLatency(d time.Duration) {
	if s, ok := t.inner.(netsim.WireLatencySink); ok {
		s.NoteWireLatency(d)
	}
}

// devTap is the stack's output device installed in front of a NIC: it
// times Transmit.
type devTap struct {
	inner tcpip.NetDevice
	r     *recorder
}

func (t devTap) Transmit(pkt *wire.Packet) {
	i := t.r.begin(kTransmit)
	t.inner.Transmit(pkt)
	t.r.end(i)
}
