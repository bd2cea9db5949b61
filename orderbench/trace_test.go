package main

import (
	"testing"
	"time"

	"msgorder/internal/event"
	"msgorder/internal/protocol"
	"msgorder/internal/protocols/registry"
)

// TestWrapKeepsInterfaces checks that a traced instance exposes exactly
// the optional interfaces of the instance it wraps, and declares the
// same descriptor, for every runnable protocol.
func TestWrapKeepsInterfaces(t *testing.T) {
	tr := newTracer(time.Now(), 1, 1)
	for _, name := range registry.Names() {
		e, _ := registry.ByName(name)
		inner := e.Maker()
		outer := tr.maker(e.Maker, 0)()
		_, d1 := inner.(protocol.Describer)
		_, d2 := outer.(protocol.Describer)
		_, s1 := inner.(protocol.Snapshotter)
		_, s2 := outer.(protocol.Snapshotter)
		_, b1 := inner.(protocol.Broadcaster)
		_, b2 := outer.(protocol.Broadcaster)
		if d1 != d2 || s1 != s2 || b1 != b2 {
			t.Errorf("%s: describer %v→%v snapshotter %v→%v broadcaster %v→%v", name, d1, d2, s1, s2, b1, b2)
		}
		if d1 && inner.(protocol.Describer).Describe() != outer.(protocol.Describer).Describe() {
			t.Errorf("%s: descriptor changed by the wrapper", name)
		}
	}
}

// TestTracerPairsWires drives a wrapped causal instance by hand and
// checks the spans it stamps.
func TestTracerPairsWires(t *testing.T) {
	tr := newTracer(time.Now(), 4, 2)
	tr.on.Store(true)
	e, _ := registry.ByName("causal-rst")
	envs := make([]*loopEnv, 2)
	procs := make([]protocol.Process, 2)
	for i := range procs {
		procs[i] = tr.maker(e.Maker, i)()
		envs[i] = &loopEnv{self: event.ProcID(i)}
		procs[i].Init(envs[i])
	}
	procs[0].OnInvoke(event.Message{ID: 1, From: 0, To: 1})
	if len(envs[0].sent) != 1 {
		t.Fatalf("P0 sent %d wires, want 1", len(envs[0].sent))
	}
	procs[1].OnReceive(envs[0].sent[0])
	if len(envs[1].delivered) != 1 || envs[1].delivered[0] != 1 {
		t.Fatalf("P1 delivered %v, want [1]", envs[1].delivered)
	}
	if got := tr.transits(); len(got) != 1 || got[0].key.msg != 1 {
		t.Fatalf("transits = %+v, want one for m1", got)
	}
	for name, s := range map[string][]int64{"onInvoke": tr.onInvoke, "userSend": tr.userSend, "onReceive": tr.onReceive, "deliver": tr.deliver} {
		if s[1] == 0 {
			t.Errorf("%s not stamped for m1", name)
		}
	}
}

// loopEnv is a hand-driven protocol.Env.
type loopEnv struct {
	self      event.ProcID
	sent      []protocol.Wire
	delivered []event.MsgID
}

func (e *loopEnv) Self() event.ProcID { return e.self }
func (e *loopEnv) NumProcs() int      { return 2 }
func (e *loopEnv) Send(w protocol.Wire) {
	w.From = e.self
	e.sent = append(e.sent, w)
}
func (e *loopEnv) Deliver(id event.MsgID) { e.delivered = append(e.delivered, id) }
