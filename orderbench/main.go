// Command orderbench is the repository's benchmark. One run executes
// one named workload for a fixed time, checks every output against an
// oracle written apart from the program, and prints as its last line a
// JSON object with the operations attempted and failed and the
// metrics: the end-to-end metrics, or with -trace 1 the per-layer ones
// from a traced run measured against an untraced one.
//
// Workloads (see README.md for why each exists):
//
//	causal-paced  open loop at a fixed rate on a 3-node causal-rst mesh with file WALs
//	sync-closed   closed loop, one outstanding message per sender, 3-node sync mesh
//	verify        validation of recorded dsim runs against their specs, no network
//
// Usage:
//
//	orderbench -workload causal-paced -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for journals and span files
}

var meshWorkloads = map[string]meshWorkload{
	"causal-paced": {spec: "causal-b2", witness: "causal-rst", fileWAL: true, rate: pacedRate,
		orders: []order{orderFIFO, orderCausal}, warmRounds: 100},
	"sync-closed": {spec: "sync-2", witness: "sync", orders: []order{orderSync}, warmRounds: 20},
}

// pacedRate is causal-paced's offered load in msgs/s, below the knee
// of its latency curve (README.md).
const pacedRate = 8000

// verifySetupRepeats records the verify mix this many times; setup_s
// is the median, the last recording is validated.
const verifySetupRepeats = 5

// End-to-end metrics and their units; every workload reports all.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"msgs_per_s":     "1/s",
	"latency_p50_us": "us",
	"latency_p90_us": "us",
	"cpu_us_per_msg": "us",
	"peak_heap_mb":   "MB",
}

// Per-layer metrics and their units. A layer a workload does not run
// reads 0 there (no mesh on verify, no validation on the mesh).
var perLayerUnits = map[string]string{
	"netmesh.inbox_wait_us.p50":       "us",
	"netmesh.inbox_wait_us.p90":       "us",
	"netmesh.transit_us.p50":          "us",
	"netmesh.transit_us.p90":          "us",
	"netmesh.send_call_us.mean":       "us",
	"netmesh.envelopes_per_frame":     "env/frame",
	"netmesh.frames_per_msg":          "frame/msg",
	"netmesh.bytes_per_msg":           "B/msg",
	"protocols.send_inhibit_us.p50":   "us",
	"protocols.send_inhibit_us.p90":   "us",
	"protocols.recv_inhibit_us.p50":   "us",
	"protocols.recv_inhibit_us.p90":   "us",
	"protocols.handler_self_us.mean":  "us",
	"protocols.control_wires_per_msg": "wire/msg",
	"protocols.tag_bytes_per_msg":     "B/msg",
	"transport.retransmits_per_kmsg":  "1/kmsg",
	"transport.dups_dropped_per_kmsg": "1/kmsg",
	"transport.acks_per_envelope":     "ack/env",
	"transport.cum_acked_per_kmsg":    "1/kmsg",
	"crash.wal_appends_per_msg":       "entry/msg",
	"crash.wal_entries_per_flush":     "entry/flush",
	"run.build_ms.mean":               "ms",
	"userview.build_ms.mean":          "ms",
	"check.search_ms.mean":            "ms",
	"run.alloc_mb.mean":               "MB",
	"proc.alloc_bytes_per_msg":        "B/msg",
	"proc.gc_cycles_per_kmsg":         "1/kmsg",
	"bench.gen_late_us.p99":           "us",
	"bench.gen_late_us.max":           "us",
	"bench.trace_overhead_pct":        "%",
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orderbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: causal-paced, sync-closed or verify")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "length of the timed region in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := fs.String("root", ".", "repository root, for the build description")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for journals and span files")
	rate := fs.Float64("rate", 0, "offered msgs/s for causal-paced (0 = the workload's rate); for measuring its latency curve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, isMesh := meshWorkloads[*workload]
	if !isMesh && *workload != "verify" {
		fmt.Fprintf(stderr, "orderbench: unknown workload %q (want causal-paced, sync-closed or verify)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "orderbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "orderbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: *work}

	fmt.Fprintln(stdout, "orderbench env", strings.Join(environment(*root), " "))
	fmt.Fprintf(stdout, "orderbench run workload=%s seed=%d seconds=%d trace=%d rate=%g\n", o.workload, o.seed, *seconds, *trace, *rate)
	var res result
	var err error
	if isMesh {
		w := meshWorkloads[o.workload]
		if *rate > 0 && w.rate > 0 {
			w.rate = *rate
		}
		res, err = runMesh(w, o, stdout)
	} else {
		res, err = runVerify(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "orderbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "orderbench ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "orderbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd turns one untraced phase into the end-to-end metrics. Each
// is a median over chunks of the timed region, so a burst of CPU steal
// on a shared host moves one chunk, not the run: the latency quantiles
// are exact quantiles of about one-second chunks of the samples, in
// issue order; throughput and CPU per operation come from the marks.
func endToEnd(setup time.Duration, ph phaseResult) map[string]float64 {
	chunks := int(ph.win.Elapsed.Seconds())
	perSec, cpu := chunkRates(ph.marks)
	return map[string]float64{
		"setup_s":        setup.Seconds(),
		"msgs_per_s":     perSec,
		"latency_p50_us": chunkedQuantile(ph.lat, 0.5, chunks),
		"latency_p90_us": chunkedQuantile(ph.lat, 0.9, chunks),
		"cpu_us_per_msg": cpu / 1e3,
		"peak_heap_mb":   float64(ph.win.PeakHeap) / 1e6,
	}
}

// procLayers are the per-layer metrics every traced phase has: process
// allocation and GC, the generator's lateness, and the tracing
// overhead against the untraced phase, as CPU per operation.
func procLayers(plain, traced phaseResult) map[string]float64 {
	ops := float64(traced.attempted)
	late := sortedMicros(traced.late)
	_, cpuPlain := chunkRates(plain.marks)
	_, cpuTraced := chunkRates(traced.marks)
	return map[string]float64{
		"proc.alloc_bytes_per_msg": ratio(float64(traced.win.AllocBytes), ops),
		"proc.gc_cycles_per_kmsg":  ratio(1000*float64(traced.win.GCs), ops),
		"bench.gen_late_us.p99":    quantile(late, tailQ(len(late), 0.99)),
		"bench.gen_late_us.max":    quantile(late, 1),
		"bench.trace_overhead_pct": 100 * ratio(cpuTraced-cpuPlain, cpuPlain),
	}
}

// report fills in the units, with every listed metric present.
func report(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: values[name], Unit: unit}
	}
	return out
}

// printNotes prints a phase's sample count, its quantiles over all
// samples (the reported ones are chunk medians, see endToEnd), and any
// failure notes.
func printNotes(w io.Writer, label string, ph phaseResult) {
	lat := sortedMicros(ph.lat)
	fmt.Fprintf(w, "orderbench %s samples=%d attempted=%d failed=%d elapsed_s=%.3f all_p50_us=%.1f all_p90_us=%.1f all_p99_us=%.1f all_msgs_per_s=%.2f all_cpu_us_per_msg=%.3f\n",
		label, len(ph.lat), ph.attempted, ph.failed, ph.win.Elapsed.Seconds(),
		quantile(lat, 0.5), quantile(lat, tailQ(len(lat), 0.9)), quantile(lat, tailQ(len(lat), 0.99)),
		float64(len(ph.lat))/ph.win.Elapsed.Seconds(), ratio(float64(ph.win.CPU.Microseconds()), float64(ph.attempted)))
	for _, n := range ph.notes {
		fmt.Fprintf(w, "orderbench %s note: %s\n", label, n)
	}
}

// runMesh runs a mesh workload: one untraced phase, and with trace a
// traced phase on a fresh mesh with the same inputs.
func runMesh(w meshWorkload, o options, out io.Writer) (result, error) {
	plain, setup, correct, err := meshPhase(w, o, nil)
	if err != nil {
		return result{}, err
	}
	printNotes(out, "untraced", plain)
	res := result{Correct: correct, Attempted: plain.attempted, Failed: plain.failed}
	if !o.trace {
		res.Metrics = report(endToEnd(setup, plain), endToEndUnits)
		return res, nil
	}
	layers := map[string]float64{}
	traced, _, correct, err := meshPhase(w, o, layers)
	if err != nil {
		return result{}, err
	}
	printNotes(out, "traced", traced)
	for k, v := range procLayers(plain, traced) {
		layers[k] = v
	}
	res.Correct = res.Correct && correct
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = report(layers, perLayerUnits)
	return res, nil
}

// meshPhase sets up a mesh, runs the workload's phase on it, stops it
// and audits the run. With layers non-nil the mesh is traced and the
// per-layer metrics are added to layers.
func meshPhase(w meshWorkload, o options, layers map[string]float64) (phaseResult, time.Duration, bool, error) {
	capacity := w.warmRounds*meshProcs*(meshProcs-1) + closedTracePerSec*int(o.seconds.Seconds())
	if w.rate > 0 {
		capacity = w.warmRounds*meshProcs*(meshProcs-1) + int(w.rate*o.seconds.Seconds()) + 1
	}
	c, setup, err := setupCluster(w, o.work, capacity, layers != nil)
	if err != nil {
		return phaseResult{}, 0, false, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	if c.tr != nil {
		c.tr.on.Store(true)
	}
	var ph phaseResult
	if w.rate > 0 {
		ph, err = c.pacedPhase(o.seconds, rng)
	} else {
		ph, err = c.closedPhase(o.seconds, rng)
	}
	c.close() // every handler has returned: the stamps are final
	if err != nil {
		return phaseResult{}, 0, false, err
	}
	correct := c.audit(&ph)
	if layers != nil {
		for k, v := range meshLayers(c, ph) {
			layers[k] = v
		}
		path := filepath.Join(o.work, "spans-"+o.workload+".txt")
		if err := c.tr.write(path, ph.first, ph.last); err != nil {
			return phaseResult{}, 0, false, err
		}
	}
	return ph, setup, correct, nil
}

// meshLayers computes the traced phase's per-layer metrics from the
// tracer's stamps and the program's counters.
func meshLayers(c *cluster, ph phaseResult) map[string]float64 {
	t, k := c.tr, ph.counters
	msgs := float64(ph.attempted)
	inbox := sortedMicros(spans(t.invokeRet, t.onInvoke, ph.first, ph.last))
	sendInh := sortedMicros(spans(t.onInvoke, t.userSend, ph.first, ph.last))
	recvInh := sortedMicros(spans(t.onReceive, t.deliver, ph.first, ph.last))
	var tr []int64
	for _, x := range t.transits() {
		tr = append(tr, x.recv-x.sent)
	}
	transit := sortedMicros(tr)
	var handlers, sendCalls, ctrl, tags int
	var self, sendTime int64
	for _, l := range t.logs {
		handlers += l.handlers
		self += l.handlerSelf
		sendCalls += l.sendCalls
		sendTime += l.sendTime
		ctrl += l.ctrlWires
		tags += l.tagBytes
	}
	return map[string]float64{
		"netmesh.inbox_wait_us.p50":       quantile(inbox, 0.5),
		"netmesh.inbox_wait_us.p90":       quantile(inbox, tailQ(len(inbox), 0.9)),
		"netmesh.transit_us.p50":          quantile(transit, 0.5),
		"netmesh.transit_us.p90":          quantile(transit, tailQ(len(transit), 0.9)),
		"netmesh.send_call_us.mean":       ratio(float64(sendTime)/1e3, float64(sendCalls)),
		"netmesh.envelopes_per_frame":     ratio(float64(k.envelopesOut), float64(k.framesOut)),
		"netmesh.frames_per_msg":          ratio(float64(k.framesOut), msgs),
		"netmesh.bytes_per_msg":           ratio(float64(k.bytesOut), msgs),
		"protocols.send_inhibit_us.p50":   quantile(sendInh, 0.5),
		"protocols.send_inhibit_us.p90":   quantile(sendInh, tailQ(len(sendInh), 0.9)),
		"protocols.recv_inhibit_us.p50":   quantile(recvInh, 0.5),
		"protocols.recv_inhibit_us.p90":   quantile(recvInh, tailQ(len(recvInh), 0.9)),
		"protocols.handler_self_us.mean":  ratio(float64(self)/1e3, float64(handlers)),
		"protocols.control_wires_per_msg": ratio(float64(ctrl), msgs),
		"protocols.tag_bytes_per_msg":     ratio(float64(tags), msgs),
		"transport.retransmits_per_kmsg":  ratio(1000*float64(k.retransmits), msgs),
		"transport.dups_dropped_per_kmsg": ratio(1000*float64(k.dups), msgs),
		"transport.acks_per_envelope":     ratio(float64(k.acks), float64(k.sent)),
		"transport.cum_acked_per_kmsg":    ratio(1000*float64(k.cumAcked), msgs),
		"crash.wal_appends_per_msg":       ratio(float64(k.walAppends), msgs),
		"crash.wal_entries_per_flush":     ratio(float64(k.walFlushedEntries), float64(k.walFlushes)),
	}
}

// runVerify runs the verify workload: record the mix (set-up), then
// validate it round by round; with trace, a second, stage-timed phase.
func runVerify(o options, out io.Writer) (result, error) {
	var times []time.Duration
	var mix []*recorded
	for k := 0; k < verifySetupRepeats; k++ {
		t0 := time.Now()
		var err error
		if mix, err = recordMix(o.seed); err != nil {
			return result{}, err
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	setup := times[len(times)/2]
	for _, rec := range mix {
		fmt.Fprintf(out, "orderbench input %s/%s seed=%d msgs=%d violated=%v\n",
			rec.kind.proto, rec.kind.spec, rec.seed, len(rec.msgs), rec.want)
	}

	plain := verifyPhase(mix, o.seconds, nil)
	printNotes(out, "untraced", plain)
	res := result{Correct: true, Attempted: plain.attempted, Failed: plain.failed}
	if !o.trace {
		res.Metrics = report(endToEnd(setup, plain), endToEndUnits)
		return res, nil
	}
	var st stageTimes
	traced := verifyPhase(mix, o.seconds, &st)
	printNotes(out, "traced", traced)
	layers := procLayers(plain, traced)
	layers["run.build_ms.mean"] = mean(st.build)
	layers["userview.build_ms.mean"] = mean(st.view)
	layers["check.search_ms.mean"] = mean(st.srch)
	layers["run.alloc_mb.mean"] = mean(st.alloc)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = report(layers, perLayerUnits)
	return res, nil
}
