package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/netmesh"
	"msgorder/internal/protocols/registry"
)

// meshWorkload is one workload on a loopback mesh of meshProcs nodes,
// each configured as cmd/mod ships a daemon: default transport and
// mesh settings, a checkpoint every snapshotEvery journal entries, and
// a file WAL where fileWAL says so (mod -wal).
type meshWorkload struct {
	spec    string  // forbidden-predicate spec, resolved by the classifier
	witness string  // protocol the classifier must pick for it
	fileWAL bool    // journal to files, not memory
	rate    float64 // offered msgs/s of an open loop; 0 = closed loop
	orders  []order // what the oracle checks besides exactly-once
	// warmRounds rounds of one message per ordered pair, each drained,
	// open every connection and warm pools before the timed region;
	// enough that set-up is long and steady (≈0.1–0.4 s).
	warmRounds int
}

const (
	// meshProcs is the smallest mesh where causal order differs from
	// FIFO: a message can overtake another through a third process.
	meshProcs = 3
	// snapshotEvery is cmd/mod's -snapshot-every default.
	snapshotEvery = 64
	// setupRepeats boots the mesh this many times per run; setup_s is
	// the median, the last boot is measured.
	setupRepeats = 5
	// closedTracePerSec sizes the traced closed loop's stamp tables;
	// messages beyond them go unstamped. The sequencer's round trips
	// keep sync-closed near 330 msgs/s.
	closedTracePerSec = 2000
	// drainTimeout bounds the wait for the last deliveries; messages
	// still missing then are failed operations.
	drainTimeout = 20 * time.Second
)

// cluster is one booted mesh plus the benchmark's probes on it.
type cluster struct {
	w      meshWorkload
	epoch  time.Time
	nodes  []*netmesh.Node
	walDir string
	tr     *tracer // nil when untraced

	// route is the run's message table, from·meshProcs+to per message,
	// appended by the generator only; it stays small so the heap the
	// run reports is the program's.
	route []uint8
	// sentAt and deliveredAt hold ns since epoch per message of an open
	// loop (nil otherwise): the generator writes a message's due time,
	// the receiving node's OnDeliver its delivery. Each slot has one
	// writer.
	sentAt, deliveredAt []int64

	delivered atomic.Int64
	target    atomic.Int64
	reached   chan struct{}
	// closedLoop routes every delivery to notify while a closed-loop
	// phase runs; notify holds at most one message per sender.
	closedLoop atomic.Bool
	notify     chan delivery
}

// delivery is one message's delivery, stamped in ns since epoch.
type delivery struct {
	id event.MsgID
	at int64
}

func (c *cluster) now() int64 { return int64(time.Since(c.epoch)) }

// onDeliver is every node's OnDeliver hook. It stamps the delivery,
// hands it to a closed-loop generator, and counts it. The count comes
// last: a waiter that has seen k deliveries knows their hooks are done.
func (c *cluster) onDeliver(id event.MsgID) {
	at := c.now()
	if int(id) < len(c.deliveredAt) {
		c.deliveredAt[id] = at
	}
	if c.closedLoop.Load() {
		c.notify <- delivery{id, at}
	}
	if c.delivered.Add(1) >= c.target.Load() {
		select {
		case c.reached <- struct{}{}:
		default:
		}
	}
}

// waitDelivered blocks until k messages in all have been delivered,
// or timeout passes.
func (c *cluster) waitDelivered(k int64, timeout time.Duration) bool {
	defer c.target.Store(math.MaxInt64)
	c.target.Store(k)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for c.delivered.Load() < k {
		select {
		case <-c.reached:
		case <-t.C:
			return false
		}
	}
	return true
}

// invoke submits the next message from → to at its sender's node.
func (c *cluster) invoke(from, to event.ProcID) (event.MsgID, error) {
	id := event.MsgID(len(c.route))
	c.route = append(c.route, uint8(int(from)*meshProcs+int(to)))
	return id, c.nodes[from].Invoke(event.Message{ID: id, From: from, To: to})
}

// messages expands the message table for the oracle.
func (c *cluster) messages() []event.Message {
	out := make([]event.Message, len(c.route))
	for id, r := range c.route {
		out[id] = event.Message{ID: event.MsgID(id), From: event.ProcID(r / meshProcs), To: event.ProcID(r % meshProcs)}
	}
	return out
}

// pairPlan returns n messages' routes: every ordered pair of processes
// equally often (n rounded down to a multiple of the pair count), in
// an order shuffled by rng. Balanced counts keep each node's share of
// the work, and so its memory, the same for every seed.
func pairPlan(rng *rand.Rand, n int) []uint8 {
	var pairs []uint8
	for from := 0; from < meshProcs; from++ {
		for to := 0; to < meshProcs; to++ {
			if from != to {
				pairs = append(pairs, uint8(from*meshProcs+to))
			}
		}
	}
	plan := make([]uint8, n-n%len(pairs))
	for i := range plan {
		plan[i] = pairs[i%len(pairs)]
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// reservePorts picks n free loopback ports for the mesh addresses.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// boot is one set-up: resolve and classify the spec, open the
// journals, start the nodes, and drain warmRounds rounds so every
// connection has handshaken. capacity sizes the open loop's stamp
// tables and the tracer's.
func boot(w meshWorkload, workDir string, capacity int, traced bool) (*cluster, error) {
	entry, _, err := registry.ForSpec(w.spec)
	if err != nil {
		return nil, err
	}
	if entry.Name != w.witness {
		return nil, fmt.Errorf("mesh: spec %s classified to %s, want %s", w.spec, entry.Name, w.witness)
	}
	addrs, err := reservePorts(meshProcs)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		w:       w,
		epoch:   time.Now(),
		reached: make(chan struct{}, 1),
		notify:  make(chan delivery, meshProcs),
	}
	if w.rate > 0 {
		c.sentAt, c.deliveredAt = make([]int64, capacity), make([]int64, capacity)
	}
	c.target.Store(math.MaxInt64)
	if traced {
		c.tr = newTracer(c.epoch, capacity, meshProcs)
	}
	if w.fileWAL {
		if c.walDir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < meshProcs; i++ {
		maker := entry.Maker
		if c.tr != nil {
			maker = c.tr.maker(maker, i)
		}
		cfg := netmesh.NodeConfig{
			Self:  event.ProcID(i),
			Procs: meshProcs,
			Maker: maker,
			Mesh: netmesh.MeshConfig{
				Addrs:       addrs,
				Fingerprint: netmesh.Fingerprint(entry.Name, w.spec, meshProcs),
			},
			SnapshotEvery: snapshotEvery,
			OnDeliver:     c.onDeliver,
		}
		if c.walDir != "" {
			cfg.WALPath = filepath.Join(c.walDir, fmt.Sprintf("p%d.wal", i))
		}
		n, err := netmesh.NewNode(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	for r := 0; r < w.warmRounds; r++ {
		for from := 0; from < meshProcs; from++ {
			for to := 0; to < meshProcs; to++ {
				if from == to {
					continue
				}
				if _, err := c.invoke(event.ProcID(from), event.ProcID(to)); err != nil {
					c.close()
					return nil, err
				}
			}
		}
		if !c.waitDelivered(int64(len(c.route)), drainTimeout) {
			c.close()
			return nil, fmt.Errorf("mesh: warm-up round %d not delivered within %v", r, drainTimeout)
		}
	}
	return c, nil
}

// close stops every node and removes the journals.
func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}

// setupCluster boots setupRepeats times, keeping the last cluster, and
// returns it with the median set-up time.
func setupCluster(w meshWorkload, workDir string, capacity int, traced bool) (*cluster, time.Duration, error) {
	var times []time.Duration
	var c *cluster
	for k := 0; k < setupRepeats; k++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = boot(w, workDir, capacity, traced); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return c, times[len(times)/2], nil
}

// meshCounters sums the counters the program exports, over all nodes.
type meshCounters struct {
	framesOut, envelopesOut, bytesOut         int
	sent, retransmits, dups, acks, cumAcked   int
	walAppends, walFlushes, walFlushedEntries int
}

func (c *cluster) counters() meshCounters {
	var s meshCounters
	for _, n := range c.nodes {
		mc, tc, wc := n.MeshCounters(), n.TransportCounters(), n.WALStats()
		s.framesOut += mc.FramesOut
		s.envelopesOut += mc.EnvelopesOut
		s.bytesOut += mc.BytesOut
		s.sent += tc.Sent
		s.retransmits += tc.Retransmits
		s.dups += tc.DupsDropped
		s.acks += tc.AcksReceived
		s.cumAcked += tc.CumAcked
		s.walAppends += wc.Appends
		s.walFlushes += wc.Flushes
		s.walFlushedEntries += wc.FlushedEntries
	}
	return s
}

func (a meshCounters) minus(b meshCounters) meshCounters {
	return meshCounters{
		a.framesOut - b.framesOut, a.envelopesOut - b.envelopesOut, a.bytesOut - b.bytesOut,
		a.sent - b.sent, a.retransmits - b.retransmits, a.dups - b.dups, a.acks - b.acks, a.cumAcked - b.cumAcked,
		a.walAppends - b.walAppends, a.walFlushes - b.walFlushes, a.walFlushedEntries - b.walFlushedEntries,
	}
}

// phaseResult is one timed region's measurements.
type phaseResult struct {
	attempted, failed int
	lat               []int64 // per completed operation, ns
	late              []int64 // generator lateness per issue, ns
	marks             []mark  // about one per second, or per verify round
	win               windowStats
	counters          meshCounters
	first, last       int // message IDs of the phase: [first, last)
	notes             []string
}

// pace issues n operations on a fixed schedule, operation i due at
// start + i·period, whatever earlier operations have done: a stall
// delays later issues but never moves their due times, so the wait it
// imposes is charged to them (no coordinated omission). It returns how
// late each issue ran.
func pace(start time.Time, n int, period time.Duration, issue func(i int, due time.Time) error) ([]int64, error) {
	late := make([]int64, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = int64(time.Since(due))
		if err := issue(i, due); err != nil {
			return late, err
		}
	}
	return late, nil
}

// pacedPhase is the open loop: rate·d messages on pairPlan's routes and
// pace's schedule, latency timed from each message's due time.
func (c *cluster) pacedPhase(d time.Duration, rng *rand.Rand) (phaseResult, error) {
	plan := pairPlan(rng, int(c.w.rate*d.Seconds()))
	n := len(plan)
	res := phaseResult{first: len(c.route), attempted: n}
	res.counters = c.counters()
	period := time.Duration(float64(time.Second) / c.w.rate)
	perMark := int(c.w.rate)
	win := openWindow()
	res.marks = append(res.marks, markNow(c.delivered.Load()))
	late, err := pace(win.start.Add(time.Millisecond), n, period, func(i int, due time.Time) error {
		if i > 0 && i%perMark == 0 {
			res.marks = append(res.marks, markNow(c.delivered.Load()))
		}
		id, err := c.invoke(event.ProcID(plan[i]/meshProcs), event.ProcID(plan[i]%meshProcs))
		c.sentAt[id] = int64(due.Sub(c.epoch))
		if c.tr != nil {
			c.tr.invokeRet[id] = c.now()
		}
		return err
	})
	if err != nil {
		return res, err
	}
	res.late = late
	res.last = len(c.route)
	if !c.waitDelivered(int64(res.last), drainTimeout) {
		// Stop the nodes so no late delivery races the reads below;
		// the oracle reports what is missing.
		c.close()
	}
	res.marks = append(res.marks, markNow(c.delivered.Load()))
	return c.finishPhase(res, win), nil
}

// closedPhase is the closed loop: every process keeps one message
// outstanding to a random peer and sends the next as soon as it is
// delivered, until d has passed.
func (c *cluster) closedPhase(d time.Duration, rng *rand.Rand) (phaseResult, error) {
	res := phaseResult{first: len(c.route)}
	res.counters = c.counters()
	c.closedLoop.Store(true)
	defer c.closedLoop.Store(false)
	win := openWindow()
	var sent [meshProcs]int64
	issue := func(from event.ProcID) error {
		sent[from] = c.now()
		id, err := c.invoke(from, pickPeer(rng, from))
		if c.tr != nil {
			stamp(c.tr.invokeRet, id, c.now())
		}
		return err
	}
	res.marks = append(res.marks, markNow(0))
	for p := 0; p < meshProcs; p++ {
		if err := issue(event.ProcID(p)); err != nil {
			return res, err
		}
	}
	var lastAt int64
	for live := meshProcs; live > 0; {
		var dv delivery
		select {
		case dv = <-c.notify:
		case <-time.After(drainTimeout):
			res.notes = append(res.notes, fmt.Sprintf("closed loop: %d messages outstanding after %v", live, drainTimeout))
			live = 0
			continue
		}
		from := event.ProcID(c.route[dv.id] / meshProcs)
		res.lat = append(res.lat, dv.at-sent[from])
		lastAt = dv.at
		if time.Since(res.marks[len(res.marks)-1].at) >= time.Second {
			res.marks = append(res.marks, markNow(int64(len(res.lat))))
		}
		if time.Since(win.start) >= d {
			live--
			continue
		}
		res.late = append(res.late, c.now()-dv.at)
		if err := issue(from); err != nil {
			return res, err
		}
	}
	res.last = len(c.route)
	res.attempted = res.last - res.first
	res.marks = append(res.marks, markNow(int64(len(res.lat))))
	res.win = win.close(c.epoch.Add(time.Duration(lastAt)))
	res.counters = c.counters().minus(res.counters)
	return res, nil
}

// finishPhase closes the window at the last delivery and collects the
// latency samples and counter deltas.
func (c *cluster) finishPhase(res phaseResult, win *window) phaseResult {
	var lastAt int64
	for id := res.first; id < res.last; id++ {
		at := c.deliveredAt[id]
		if at == 0 {
			continue
		}
		res.lat = append(res.lat, at-c.sentAt[id])
		if at > lastAt {
			lastAt = at
		}
	}
	res.win = win.close(c.epoch.Add(time.Duration(lastAt)))
	res.counters = c.counters().minus(res.counters)
	return res
}

// audit runs the oracle over the whole run, warm-up included, and
// counts the phase's messages it faults. A fault outside the phase, or
// a node error, makes the run incorrect.
func (c *cluster) audit(res *phaseResult) (correct bool) {
	procs := make([][]event.Event, len(c.nodes))
	correct = true
	for i, n := range c.nodes {
		procs[i] = n.Events()
		if err := n.Err(); err != nil {
			correct = false
			res.notes = append(res.notes, fmt.Sprintf("P%d: %v", i, err))
		}
	}
	for _, f := range checkRun(&userRun{msgs: c.messages(), procs: procs}, c.w.orders...) {
		if int(f.Msg) >= res.first && int(f.Msg) < res.last {
			res.failed++
		} else {
			correct = false
		}
		if len(res.notes) < 5 {
			res.notes = append(res.notes, fmt.Sprintf("m%d: %s", f.Msg, f.What))
		}
	}
	return correct
}

// pickPeer draws a destination other than from.
func pickPeer(rng *rand.Rand, from event.ProcID) event.ProcID {
	return event.ProcID((int(from) + 1 + rng.Intn(meshProcs-1)) % meshProcs)
}
