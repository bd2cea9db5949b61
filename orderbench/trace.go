package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"sync/atomic"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
)

// tracer times the protocol layer from outside the program: it wraps
// the protocol.Maker handed to each node, and the protocol.Env the node
// hands back, and stamps every boundary crossing. Records stay in
// memory until the run ends; nothing is recorded while on is false.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// Per-message stamps, ns since epoch (0 = none). Each slot has one
	// writer: the generator (invokeRet), the sender's handler goroutine
	// (onInvoke, userSend) or the receiver's (onReceive, deliver).
	invokeRet, onInvoke, userSend, onReceive, deliver []int64
	logs                                              []*nodeLog
}

// nodeLog is one node's records, written only by its handler goroutine.
type nodeLog struct {
	wires       []wireSpan
	handlers    int
	handlerSelf int64 // ns in handlers outside Env calls
	sendCalls   int
	sendTime    int64 // ns inside Env.Send
	ctrlWires   int
	tagBytes    int
	child       int64 // Env call time inside the running handler
}

// wireKey identifies a wire well enough to pair its send with its
// receipt: user wires by message, control wires by type and payload
// (equal control wires on one channel pair up in order).
type wireKey struct {
	from, to event.ProcID
	kind     protocol.WireKind
	ctrl     uint8
	msg      event.MsgID
	tag      uint64
}

// wireSpan is one end of a wire's transit: its Env.Send or its
// OnReceive at the destination.
type wireSpan struct {
	key  wireKey
	at   int64
	recv bool
}

func newTracer(epoch time.Time, capacity, procs int) *tracer {
	t := &tracer{
		epoch:     epoch,
		invokeRet: make([]int64, capacity),
		onInvoke:  make([]int64, capacity),
		userSend:  make([]int64, capacity),
		onReceive: make([]int64, capacity),
		deliver:   make([]int64, capacity),
	}
	for i := 0; i < procs; i++ {
		t.logs = append(t.logs, &nodeLog{})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// stamp records at in slot id of s if the slot is free.
func stamp(s []int64, id event.MsgID, at int64) {
	if int(id) >= 0 && int(id) < len(s) && s[id] == 0 {
		s[id] = at
	}
}

func keyOf(w protocol.Wire) wireKey {
	k := wireKey{from: w.From, to: w.To, kind: w.Kind, ctrl: w.Ctrl}
	if w.Kind == protocol.UserWire {
		k.msg = w.Msg
	} else if len(w.Tag) > 0 {
		h := fnv.New64a()
		h.Write(w.Tag)
		k.tag = h.Sum64()
	}
	return k
}

// maker wraps inner for node self.
func (t *tracer) maker(inner protocol.Maker, self int) protocol.Maker {
	return func() protocol.Process {
		return wrapProcess(&tracedProc{inner: inner(), t: t, log: t.logs[self]})
	}
}

// tracedProc forwards every handler to the wrapped instance, timing it.
type tracedProc struct {
	inner protocol.Process
	t     *tracer
	log   *nodeLog
}

// wrapProcess returns p with exactly the optional interfaces its inner
// instance has, so the node enforces the same capability class, takes
// the same checkpoints and delivers broadcasts the same way as it
// would untraced.
func wrapProcess(p *tracedProc) protocol.Process {
	d, isD := p.inner.(protocol.Describer)
	s, isS := p.inner.(protocol.Snapshotter)
	_, isB := p.inner.(protocol.Broadcaster)
	b := tracedBroadcast{p}
	switch {
	case isD && isS && isB:
		return struct {
			*tracedProc
			protocol.Describer
			protocol.Snapshotter
			tracedBroadcast
		}{p, d, s, b}
	case isD && isS:
		return struct {
			*tracedProc
			protocol.Describer
			protocol.Snapshotter
		}{p, d, s}
	case isD && isB:
		return struct {
			*tracedProc
			protocol.Describer
			tracedBroadcast
		}{p, d, b}
	case isS && isB:
		return struct {
			*tracedProc
			protocol.Snapshotter
			tracedBroadcast
		}{p, s, b}
	case isD:
		return struct {
			*tracedProc
			protocol.Describer
		}{p, d}
	case isS:
		return struct {
			*tracedProc
			protocol.Snapshotter
		}{p, s}
	case isB:
		return struct {
			*tracedProc
			tracedBroadcast
		}{p, b}
	}
	return p
}

func (p *tracedProc) Init(env protocol.Env) {
	p.inner.Init(&tracedEnv{inner: env, p: p})
}

// handled closes a handler span that started at t0.
func (p *tracedProc) handled(t0 int64) {
	p.log.handlers++
	p.log.handlerSelf += p.t.now() - t0 - p.log.child
}

func (p *tracedProc) OnInvoke(m event.Message) {
	if !p.t.on.Load() {
		p.inner.OnInvoke(m)
		return
	}
	t0 := p.t.now()
	stamp(p.t.onInvoke, m.ID, t0)
	p.log.child = 0
	p.inner.OnInvoke(m)
	p.handled(t0)
}

func (p *tracedProc) OnReceive(w protocol.Wire) {
	if !p.t.on.Load() {
		p.inner.OnReceive(w)
		return
	}
	t0 := p.t.now()
	p.log.wires = append(p.log.wires, wireSpan{key: keyOf(w), at: t0, recv: true})
	if w.Kind == protocol.UserWire {
		stamp(p.t.onReceive, w.Msg, t0)
	}
	p.log.child = 0
	p.inner.OnReceive(w)
	p.handled(t0)
}

// tracedBroadcast forwards native broadcasts, timing them as one
// handler that invokes every copy.
type tracedBroadcast struct{ p *tracedProc }

func (b tracedBroadcast) OnBroadcast(msgs []event.Message) {
	p := b.p
	inner := p.inner.(protocol.Broadcaster)
	if !p.t.on.Load() {
		inner.OnBroadcast(msgs)
		return
	}
	t0 := p.t.now()
	for _, m := range msgs {
		stamp(p.t.onInvoke, m.ID, t0)
	}
	p.log.child = 0
	inner.OnBroadcast(msgs)
	p.handled(t0)
}

// tracedEnv times the protocol's calls back into the node.
type tracedEnv struct {
	inner protocol.Env
	p     *tracedProc
}

func (e *tracedEnv) Self() event.ProcID { return e.inner.Self() }
func (e *tracedEnv) NumProcs() int      { return e.inner.NumProcs() }

func (e *tracedEnv) Send(w protocol.Wire) {
	p := e.p
	if !p.t.on.Load() {
		e.inner.Send(w)
		return
	}
	t0 := p.t.now()
	w.From = e.inner.Self() // the node stamps it too; the key needs it now
	if w.Kind == protocol.UserWire {
		stamp(p.t.userSend, w.Msg, t0)
		p.log.tagBytes += len(w.Tag)
	} else {
		p.log.ctrlWires++
	}
	p.log.wires = append(p.log.wires, wireSpan{key: keyOf(w), at: t0})
	e.inner.Send(w)
	d := p.t.now() - t0
	p.log.sendCalls++
	p.log.sendTime += d
	p.log.child += d
}

func (e *tracedEnv) Deliver(id event.MsgID) {
	p := e.p
	if !p.t.on.Load() {
		e.inner.Deliver(id)
		return
	}
	t0 := p.t.now()
	stamp(p.t.deliver, id, t0)
	e.inner.Deliver(id)
	p.log.child += p.t.now() - t0
}

// transit is one wire's trip from Env.Send to OnReceive.
type transit struct {
	key        wireKey
	sent, recv int64
}

// transits pairs every recorded wire send with its receipt, in order
// per key.
func (t *tracer) transits() []transit {
	sends := map[wireKey][]int64{}
	for _, l := range t.logs {
		for _, s := range l.wires {
			if !s.recv {
				sends[s.key] = append(sends[s.key], s.at)
			}
		}
	}
	var out []transit
	for _, l := range t.logs {
		for _, s := range l.wires {
			if !s.recv {
				continue
			}
			q := sends[s.key]
			if len(q) == 0 {
				continue // sent before tracing started
			}
			out = append(out, transit{key: s.key, sent: q[0], recv: s.at})
			sends[s.key] = q[1:]
		}
	}
	return out
}

// spans returns stamp[b]-stamp[a] for every message in [first, last)
// that has both, clamped at 0: a handler that starts before Invoke has
// returned waited for nothing.
func spans(a, b []int64, first, last int) []int64 {
	var out []int64
	for id := first; id < last; id++ {
		if a[id] == 0 || b[id] == 0 {
			continue
		}
		d := b[id] - a[id]
		if d < 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}

// write saves the run's spans to path, one per line as
// "name start_ns end_ns msg" (msg -1 for a control wire).
func (t *tracer) write(path string, first, last int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	span := func(name string, a, b []int64) {
		for id := first; id < last; id++ {
			if a[id] != 0 && b[id] != 0 {
				fmt.Fprintf(bw, "%s %d %d %d\n", name, a[id], b[id], id)
			}
		}
	}
	span("netmesh.inbox_wait", t.invokeRet, t.onInvoke)
	span("protocols.send_inhibit", t.onInvoke, t.userSend)
	span("protocols.recv_inhibit", t.onReceive, t.deliver)
	for _, tr := range t.transits() {
		msg := int64(-1)
		if tr.key.kind == protocol.UserWire {
			msg = int64(tr.key.msg)
		}
		fmt.Fprintf(bw, "netmesh.transit %d %d %d\n", tr.sent, tr.recv, msg)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
