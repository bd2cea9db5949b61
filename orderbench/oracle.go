package main

import (
	"fmt"
	"sort"

	"msgorder/internal/event"
)

// The oracle re-derives every verdict the benchmark reports from the
// raw event sequences, with its own vector clocks and its own graph
// search. It shares no code with the program's run, userview, poset or
// check packages, so a fault there cannot hide itself.

// userRun is the oracle's input: the message table (sender, receiver,
// color of each message) and every process's send and deliver events
// in local order. Other event kinds are ignored.
type userRun struct {
	msgs  []event.Message
	procs [][]event.Event
}

// finding is one property violation pinned to a message.
type finding struct {
	Msg  event.MsgID
	What string
}

// order names the ordering property a run is checked against.
type order int

const (
	orderNone   order = iota
	orderFIFO         // deliveries on a channel in send order
	orderCausal       // no x, y with x.s ▷ y.s and y.r ▷ x.r (B2)
	orderFlush        // a red message on a channel trails every earlier send there
	orderKWeak1       // no delivery overtakes a send two or more places earlier on its channel
	orderCrown2       // no x, y with x.s ▷ y.r and y.s ▷ x.r
	orderSync         // no crown of any size: the message graph is acyclic
)

// specOrder maps the catalog specification names the benchmark checks
// onto the oracle's own reading of them.
var specOrder = map[string]order{
	"fifo":                orderFIFO,
	"causal-b2":           orderCausal,
	"local-forward-flush": orderFlush,
	"kweaker-1-channel":   orderKWeak1,
	"sync-2":              orderCrown2,
}

// clocks holds the vector clock of every send and deliver event and
// each send's position in its process (1-based count of user events).
// e ▷ f for an event e at process q holds iff f's clock counts at least
// e's position at q.
type clocks struct {
	n         int
	sendPos   []int32
	sendVC    []int32 // n entries per message
	deliverVC []int32
	sent      []bool
	delivered []bool
}

func (c *clocks) sendClock(m event.MsgID) []int32 {
	return c.sendVC[int(m)*c.n : int(m+1)*c.n]
}

func (c *clocks) deliverClock(m event.MsgID) []int32 {
	return c.deliverVC[int(m)*c.n : int(m+1)*c.n]
}

// vectorClocks stamps every event by merging the per-process
// sequences: a deliver waits until its send is stamped. A deliver whose
// send never occurs is stamped without the dependency (exactlyOnce
// reports it). Sequences that block each other mean the run is cyclic.
func vectorClocks(r *userRun) (*clocks, error) {
	n, m := len(r.procs), len(r.msgs)
	c := &clocks{
		n:         n,
		sendPos:   make([]int32, m),
		sendVC:    make([]int32, m*n),
		deliverVC: make([]int32, m*n),
		sent:      make([]bool, m),
		delivered: make([]bool, m),
	}
	hasSend := make([]bool, m)
	for _, seq := range r.procs {
		for _, e := range seq {
			if e.Kind == event.Send && int(e.Msg) >= 0 && int(e.Msg) < m {
				hasSend[e.Msg] = true
			}
		}
	}
	vc := make([][]int32, n)
	for p := range vc {
		vc[p] = make([]int32, n)
	}
	next := make([]int, n)
	for progress := true; progress; {
		progress = false
		for p, seq := range r.procs {
			for next[p] < len(seq) {
				e := seq[next[p]]
				if int(e.Msg) < 0 || int(e.Msg) >= m {
					next[p]++
					continue
				}
				if e.Kind == event.Deliver && hasSend[e.Msg] && !c.sent[e.Msg] {
					break
				}
				next[p]++
				progress = true
				switch e.Kind {
				case event.Send:
					vc[p][p]++
					if !c.sent[e.Msg] {
						c.sent[e.Msg] = true
						c.sendPos[e.Msg] = vc[p][p]
						copy(c.sendClock(e.Msg), vc[p])
					}
				case event.Deliver:
					vc[p][p]++
					if c.sent[e.Msg] {
						for q, v := range c.sendClock(e.Msg) {
							if v > vc[p][q] {
								vc[p][q] = v
							}
						}
					}
					if !c.delivered[e.Msg] {
						c.delivered[e.Msg] = true
						copy(c.deliverClock(e.Msg), vc[p])
					}
				}
			}
		}
	}
	for p, seq := range r.procs {
		if next[p] < len(seq) {
			return nil, fmt.Errorf("oracle: P%d blocked at %v: deliveries precede their sends in a cycle", p, seq[next[p]])
		}
	}
	return c, nil
}

// exactlyOnce checks that every message was sent once by its sender
// and delivered once by its receiver, and that no event names an
// unknown message or sits at the wrong process.
func exactlyOnce(r *userRun) []finding {
	var out []finding
	m := len(r.msgs)
	sends := make([]int, m)
	delivers := make([]int, m)
	for p, seq := range r.procs {
		for _, e := range seq {
			if int(e.Msg) < 0 || int(e.Msg) >= m {
				out = append(out, finding{e.Msg, fmt.Sprintf("event %v names an unknown message", e)})
				continue
			}
			msg := r.msgs[e.Msg]
			switch e.Kind {
			case event.Send:
				sends[e.Msg]++
				if msg.From != event.ProcID(p) {
					out = append(out, finding{e.Msg, fmt.Sprintf("sent by P%d, not its sender P%d", p, msg.From)})
				}
			case event.Deliver:
				delivers[e.Msg]++
				if msg.To != event.ProcID(p) {
					out = append(out, finding{e.Msg, fmt.Sprintf("delivered at P%d, not its receiver P%d", p, msg.To)})
				}
			}
		}
	}
	for id := range r.msgs {
		switch {
		case sends[id] != 1:
			out = append(out, finding{event.MsgID(id), fmt.Sprintf("sent %d times", sends[id])})
		case delivers[id] != 1:
			out = append(out, finding{event.MsgID(id), fmt.Sprintf("delivered %d times", delivers[id])})
		}
	}
	return out
}

// channelOrder checks the per-destination properties (FIFO, causal B2,
// forward flush, 1-weaker channel order) by replaying each process's
// deliveries against every channel's send order. For each channel
// (q, p) it keeps the earliest-sent message not yet delivered at p:
// delivering w while that message x is still pending means x.r comes
// after w.r (or never), so w overtook x.
func channelOrder(r *userRun, c *clocks, o order) []finding {
	n := len(r.procs)
	chanOf := func(q, p event.ProcID) int { return int(q)*n + int(p) }
	sent := make([][]event.MsgID, n*n) // per channel, in send order
	idx := make([]int, len(r.msgs))    // position in its channel
	for q, seq := range r.procs {
		for _, e := range seq {
			if e.Kind != event.Send || int(e.Msg) < 0 || int(e.Msg) >= len(r.msgs) {
				continue
			}
			msg := r.msgs[e.Msg]
			if msg.From != event.ProcID(q) {
				continue
			}
			ch := chanOf(msg.From, msg.To)
			idx[e.Msg] = len(sent[ch])
			sent[ch] = append(sent[ch], e.Msg)
		}
	}
	head := make([]int, n*n) // first undelivered index per channel
	done := make([]bool, len(r.msgs))
	var out []finding
	for p, seq := range r.procs {
		for _, e := range seq {
			if e.Kind != event.Deliver || int(e.Msg) < 0 || int(e.Msg) >= len(r.msgs) || done[e.Msg] {
				continue
			}
			w := r.msgs[e.Msg]
			if w.To != event.ProcID(p) || !c.sent[w.ID] {
				continue
			}
			own := chanOf(w.From, w.To)
			if head[own] == len(sent[own]) {
				continue // sent at the wrong process: exactlyOnce reports it
			}
			first := sent[own][head[own]] // w itself at the latest
			switch o {
			case orderFIFO:
				if first != w.ID {
					out = append(out, finding{w.ID, fmt.Sprintf("FIFO: delivered before m%d sent earlier on P%d→P%d", first, w.From, w.To)})
				}
			case orderFlush:
				if w.Color == event.ColorRed && first != w.ID {
					out = append(out, finding{w.ID, fmt.Sprintf("flush: red message delivered before m%d sent earlier on P%d→P%d", first, w.From, w.To)})
				}
			case orderKWeak1:
				if idx[w.ID]-idx[first] >= 2 {
					out = append(out, finding{w.ID, fmt.Sprintf("1-weaker: delivered before m%d sent %d places earlier", first, idx[w.ID]-idx[first])})
				}
			case orderCausal:
				wc := c.sendClock(w.ID)
				for q := 0; q < n; q++ {
					ch := chanOf(event.ProcID(q), event.ProcID(p))
					if head[ch] == len(sent[ch]) {
						continue
					}
					x := sent[ch][head[ch]]
					if x != w.ID && c.sendPos[x] <= wc[q] {
						out = append(out, finding{w.ID, fmt.Sprintf("causal: delivered before m%d, whose send precedes its send", x)})
						break
					}
				}
			}
			done[w.ID] = true
			for head[own] < len(sent[own]) && done[sent[own][head[own]]] {
				head[own]++
			}
		}
	}
	return out
}

// crown2 finds every message in a 2-crown: x.s ▷ y.r and y.s ▷ x.r.
// Quadratic in messages, which suits the verify workload's run sizes.
func crown2(r *userRun, c *clocks) []finding {
	var out []finding
	before := func(x, y event.MsgID) bool { // x.s ▷ y.r
		return c.deliverClock(y)[r.msgs[x].From] >= c.sendPos[x]
	}
	for x := range r.msgs {
		xi := event.MsgID(x)
		if !c.sent[xi] || !c.delivered[xi] {
			continue
		}
		for y := x + 1; y < len(r.msgs); y++ {
			yi := event.MsgID(y)
			if c.sent[yi] && c.delivered[yi] && before(xi, yi) && before(yi, xi) {
				out = append(out, finding{yi, fmt.Sprintf("2-crown with m%d", x)})
			}
		}
	}
	return out
}

// syncOrder checks logical synchrony: contract each message's send and
// deliver into one node, join messages whose events are adjacent at a
// process, and require the graph to be acyclic, which is exactly when
// a numbering T with the SYNC property exists. Every message left on
// or behind a cycle after topological peeling is reported.
func syncOrder(r *userRun) []finding {
	m := len(r.msgs)
	succ := make([][]event.MsgID, m)
	indeg := make([]int, m)
	for _, seq := range r.procs {
		for i := 1; i < len(seq); i++ {
			a, b := seq[i-1].Msg, seq[i].Msg
			if a == b || int(a) < 0 || int(a) >= m || int(b) < 0 || int(b) >= m {
				continue
			}
			succ[a] = append(succ[a], b)
			indeg[b]++
		}
	}
	queue := make([]event.MsgID, 0, m)
	for id := 0; id < m; id++ {
		if indeg[id] == 0 {
			queue = append(queue, event.MsgID(id))
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, b := range succ[queue[i]] {
			if indeg[b]--; indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	var out []finding
	for id := 0; id < m; id++ {
		if indeg[id] > 0 {
			out = append(out, finding{event.MsgID(id), "sync: on or after a crown (message graph cycle)"})
		}
	}
	return out
}

// checkRun runs exactly-once plus the given ordering properties and
// returns every finding, at most one per message, ordered by message.
func checkRun(r *userRun, orders ...order) []finding {
	all := exactlyOnce(r)
	c, err := vectorClocks(r)
	if err != nil {
		// A cyclic run has no clocks; the cycle is the finding.
		all = append(all, syncOrder(r)...)
	} else {
		for _, o := range orders {
			switch o {
			case orderFIFO, orderCausal, orderFlush, orderKWeak1:
				all = append(all, channelOrder(r, c, o)...)
			case orderCrown2:
				all = append(all, crown2(r, c)...)
			case orderSync:
				all = append(all, syncOrder(r)...)
			}
		}
	}
	seen := map[event.MsgID]bool{}
	out := all[:0]
	for _, f := range all {
		if !seen[f.Msg] {
			seen[f.Msg] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// userEvents projects system-run sequences onto sends and delivers.
func userEvents(procs [][]event.Event) [][]event.Event {
	out := make([][]event.Event, len(procs))
	for p, seq := range procs {
		for _, e := range seq {
			if e.Kind == event.Send || e.Kind == event.Deliver {
				out[p] = append(out[p], e)
			}
		}
	}
	return out
}
