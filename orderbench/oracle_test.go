package main

import (
	"strings"
	"testing"

	"msgorder/internal/event"
)

// msgs builds a message table from "from>to" pairs; a trailing "r"
// marks a red message.
func msgs(routes ...string) []event.Message {
	out := make([]event.Message, len(routes))
	for i, r := range routes {
		out[i] = event.Message{ID: event.MsgID(i), From: event.ProcID(r[0] - '0'), To: event.ProcID(r[2] - '0')}
		if strings.HasSuffix(r, "r") {
			out[i].Color = event.ColorRed
		}
	}
	return out
}

// seq builds one process's events from tokens "s3" (send m3) and "d3"
// (deliver m3).
func seq(tokens ...string) []event.Event {
	out := make([]event.Event, len(tokens))
	for i, t := range tokens {
		k := event.Send
		if t[0] == 'd' {
			k = event.Deliver
		}
		id := 0
		for _, c := range t[1:] {
			id = id*10 + int(c-'0')
		}
		out[i] = event.E(event.MsgID(id), k)
	}
	return out
}

// flagged returns the messages checkRun faults.
func flagged(r *userRun, orders ...order) []event.MsgID {
	var out []event.MsgID
	for _, f := range checkRun(r, orders...) {
		out = append(out, f.Msg)
	}
	return out
}

func same(a, b []event.MsgID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOracleFindsEachViolation(t *testing.T) {
	causalOnly := &userRun{ // m0 overtaken through P1: FIFO holds, causal does not
		msgs:  msgs("0>2", "0>1", "1>2"),
		procs: [][]event.Event{seq("s0", "s1"), seq("d1", "s2"), seq("d2", "d0")},
	}
	threeCrown := &userRun{ // every process sends before it delivers
		msgs:  msgs("0>1", "1>2", "2>0"),
		procs: [][]event.Event{seq("s0", "d2"), seq("s1", "d0"), seq("s2", "d1")},
	}
	cases := []struct {
		name   string
		run    *userRun
		orders []order
		want   []event.MsgID
	}{
		{"missing delivery", &userRun{msgs("0>1", "0>1"), [][]event.Event{seq("s0", "s1"), seq("d0")}}, nil, []event.MsgID{1}},
		{"duplicate delivery", &userRun{msgs("0>1"), [][]event.Event{seq("s0"), seq("d0", "d0")}}, nil, []event.MsgID{0}},
		{"duplicate send", &userRun{msgs("0>1"), [][]event.Event{seq("s0", "s0"), seq("d0")}}, nil, []event.MsgID{0}},
		{"wrong receiver", &userRun{msgs("0>1"), [][]event.Event{seq("s0", "d0"), nil}}, nil, []event.MsgID{0}},
		{"unknown message", &userRun{msgs("0>1"), [][]event.Event{seq("s0", "s7"), seq("d0")}}, nil, []event.MsgID{7}},
		{"fifo", &userRun{msgs("0>1", "0>1"), [][]event.Event{seq("s0", "s1"), seq("d1", "d0")}}, []order{orderFIFO}, []event.MsgID{1}},
		{"causal passes fifo", causalOnly, []order{orderFIFO}, nil},
		{"causal", causalOnly, []order{orderCausal}, []event.MsgID{2}},
		{"flush", &userRun{msgs("0>1", "0>1r"), [][]event.Event{seq("s0", "s1"), seq("d1", "d0")}}, []order{orderFlush}, []event.MsgID{1}},
		{"flush ignores plain overtaking", &userRun{msgs("0>1", "0>1"), [][]event.Event{seq("s0", "s1"), seq("d1", "d0")}}, []order{orderFlush}, nil},
		{"1-weaker allows one place", &userRun{msgs("0>1", "0>1"), [][]event.Event{seq("s0", "s1"), seq("d1", "d0")}}, []order{orderKWeak1}, nil},
		{"1-weaker", &userRun{msgs("0>1", "0>1", "0>1"), [][]event.Event{seq("s0", "s1", "s2"), seq("d2", "d0", "d1")}}, []order{orderKWeak1}, []event.MsgID{2}},
		{"2-crown", &userRun{msgs("0>1", "1>0"), [][]event.Event{seq("s0", "d1"), seq("s1", "d0")}}, []order{orderCrown2}, []event.MsgID{1}},
		{"2-crown is a sync cycle", &userRun{msgs("0>1", "1>0"), [][]event.Event{seq("s0", "d1"), seq("s1", "d0")}}, []order{orderSync}, []event.MsgID{0, 1}},
		{"3-crown has no 2-crown", threeCrown, []order{orderCrown2}, nil},
		{"3-crown is a sync cycle", threeCrown, []order{orderSync}, []event.MsgID{0, 1, 2}},
		{"synchronous run", &userRun{msgs("0>1", "1>0"), [][]event.Event{seq("s0", "d1"), seq("d0", "s1")}}, []order{orderSync, orderCrown2, orderCausal, orderFIFO}, nil},
		{"delivery before send", &userRun{msgs("0>1", "1>0"), [][]event.Event{seq("d1", "s0"), seq("d0", "s1")}}, []order{orderCausal}, []event.MsgID{0, 1}},
	}
	for _, c := range cases {
		if got := flagged(c.run, c.orders...); !same(got, c.want) {
			t.Errorf("%s: flagged %v, want %v (%v)", c.name, got, c.want, checkRun(c.run, c.orders...))
		}
	}
}

// TestOracleAgreesWithProgram records one small run of every verify
// kind, the tagless control included, and requires the program's
// verdict to equal the oracle's, with the control violated on both
// sides.
func TestOracleAgreesWithProgram(t *testing.T) {
	for _, k := range verifyMix {
		rec, err := recordRun(k, k.sizes[0]/2, 7)
		if err != nil {
			t.Fatal(err)
		}
		v := validate(rec, false)
		if v.err != nil {
			t.Fatalf("%s: %v", k.proto, v.err)
		}
		if v.violated != rec.want || rec.want != k.negative {
			t.Errorf("%s/%s: program violated=%v, oracle violated=%v, control=%v", k.proto, k.spec, v.violated, rec.want, k.negative)
		}
	}
}
