package main

import (
	"fmt"
	"math/rand"
	"time"

	"msgorder/internal/catalog"
	"msgorder/internal/dsim"
	"msgorder/internal/event"
	"msgorder/internal/protocols/registry"
	"msgorder/internal/run"
	"msgorder/internal/spec"
)

// runKind is one catalog protocol whose dsim runs the verify mix
// records, and the catalog specification they are checked against.
type runKind struct {
	proto string // registry protocol that records the runs
	spec  string // catalog specification they are checked against
	// sizes are the runs' sizes: messages invoked up front, chaining as
	// many again. A ladder of sizes spreads validation costs over a
	// continuous range, so latency quantiles do not sit on the edge
	// between two kinds' costs.
	sizes []int
	// negative marks the control: a tagless run checked against a spec
	// it does not implement, where both verdicts must be "violated".
	negative bool
}

// Run sizes give every kind the same ladder of validation costs, from
// ≈2.5 to ≈40 ms in even steps on this project's 2-core reference
// host, so no single check dominates the mix: two-variable checks grow
// about quadratically with run size (sizes ∝ √cost), the
// three-variable 1-weaker check about cubically (sizes ∝ ∛cost), so it
// gets the shortest runs.
var (
	twoVarSizes   = []int{125, 215, 280, 330, 375, 415, 450, 485}
	threeVarSizes = []int{48, 69, 81, 91, 99, 106, 112, 117}
)

var verifyMix = []runKind{
	{proto: "fifo", spec: "fifo", sizes: twoVarSizes},
	{proto: "flush", spec: "local-forward-flush", sizes: twoVarSizes},
	{proto: "causal-rst", spec: "causal-b2", sizes: twoVarSizes},
	{proto: "causal-ses", spec: "causal-b2", sizes: twoVarSizes},
	{proto: "sync", spec: "sync-2", sizes: twoVarSizes},
	{proto: "sync-ra", spec: "sync-2", sizes: twoVarSizes},
	{proto: "kweaker-1", spec: "kweaker-1-channel", sizes: threeVarSizes},
	{proto: "tagless", spec: "causal-b2", sizes: twoVarSizes, negative: true},
}

// recorded is one dsim run ready to validate: the system events the
// program validates and the oracle's verdict on them.
type recorded struct {
	kind  runKind
	seed  int64
	msgs  []event.Message
	procs [][]event.Event
	spec  *spec.Spec
	want  bool // oracle: the run violates the spec
}

// verifyProcs is the process count of every recorded run.
const verifyProcs = 3

// recordRun records one run of kind under seed: size messages invoked
// two ticks apart between random process pairs, and the first size
// deliveries each chaining a follow-up from the receiver, so causal
// chains span processes and every run of a kind has 2·size messages.
func recordRun(k runKind, size int, seed int64) (*recorded, error) {
	entry, ok := registry.ByName(k.proto)
	if !ok {
		return nil, fmt.Errorf("verify: unknown protocol %q", k.proto)
	}
	c, ok := catalog.ByName(k.spec)
	if !ok {
		return nil, fmt.Errorf("verify: unknown spec %q", k.spec)
	}
	sp, err := spec.New(k.spec, c.Pred)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(from event.ProcID) event.ProcID {
		return event.ProcID((int(from) + 1 + rng.Intn(verifyProcs-1)) % verifyProcs)
	}
	color := func() event.Color {
		if len(entry.Colors) == 0 {
			return event.ColorNone
		}
		return entry.Colors[rng.Intn(len(entry.Colors))]
	}
	s := dsim.New(verifyProcs, entry.Maker, dsim.WithSeed(seed))
	budget := size
	s.OnDeliver(func(p event.ProcID, _ event.MsgID) []dsim.Request {
		if budget == 0 {
			return nil
		}
		budget--
		return []dsim.Request{{From: p, To: pick(p), Color: color()}}
	})
	for i := 0; i < size; i++ {
		from := event.ProcID(rng.Intn(verifyProcs))
		s.Invoke(int64(i)*2, dsim.Request{From: from, To: pick(from), Color: color()})
	}
	res, err := s.MustQuiesce()
	if err != nil {
		return nil, fmt.Errorf("verify: record %s seed %d: %w", k.proto, seed, err)
	}
	rec := &recorded{kind: k, seed: seed, msgs: res.System.Messages(), spec: sp}
	for p := 0; p < verifyProcs; p++ {
		rec.procs = append(rec.procs, res.System.ProcSeq(event.ProcID(p)))
	}
	findings := checkRun(&userRun{msgs: rec.msgs, procs: userEvents(rec.procs)}, specOrder[k.spec])
	rec.want = len(findings) > 0
	return rec, nil
}

// recordMix records one run of every kind and size, with seeds drawn
// from seed.
// The negative control is re-recorded under the next seed until the
// oracle sees its violation, so the control never passes vacuously.
func recordMix(seed int64) ([]*recorded, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*recorded
	for _, k := range verifyMix {
		for _, size := range k.sizes {
			for attempt := 0; ; attempt++ {
				rec, err := recordRun(k, size, rng.Int63())
				if err != nil {
					return nil, err
				}
				if !k.negative || rec.want {
					out = append(out, rec)
					break
				}
				if attempt == 20 {
					return nil, fmt.Errorf("verify: no %s run violated %s in %d seeds", k.proto, k.spec, attempt+1)
				}
			}
		}
	}
	return out, nil
}

// validation is the program's verdict on one recorded run, timed by
// stage.
type validation struct {
	violated          bool
	err               error
	build, view, srch time.Duration
}

// validate runs the program's validation pipeline on rec: build the
// system run, project the user's view, search for a violation.
func validate(rec *recorded, timed bool) validation {
	var v validation
	t0 := time.Now()
	r, err := run.New(rec.msgs, rec.procs)
	if err != nil {
		v.err = err
		return v
	}
	t1 := time.Now()
	uv, err := r.UsersView()
	if err != nil {
		v.err = err
		return v
	}
	t2 := time.Now()
	_, v.violated = rec.spec.Check(uv)
	if timed {
		t3 := time.Now()
		v.build, v.view, v.srch = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	}
	return v
}

// stageTimes accumulates the traced verify phase's per-validation
// costs: each stage's time and the bytes the whole pipeline allocated.
type stageTimes struct {
	build, view, srch []float64 // ms
	alloc             []float64 // MB
}

// verifyPhase validates the mix round by round for at least d, always
// finishing the round it is in so every run is validated equally
// often, and marks every round: a round's cost mix is the same every
// time, a second's is not. A validation whose verdict differs from the
// oracle's, or that errs, is a failed operation.
func verifyPhase(mix []*recorded, d time.Duration, st *stageTimes) phaseResult {
	var res phaseResult
	win := openWindow()
	res.marks = append(res.marks, markNow(0))
	for round := 0; round == 0 || time.Since(win.start) < d; round++ {
		for _, rec := range mix {
			var alloc0 uint64
			if st != nil {
				alloc0, _, _ = memCounters()
			}
			t0 := time.Now()
			v := validate(rec, st != nil)
			res.lat = append(res.lat, int64(time.Since(t0)))
			res.attempted++
			if st != nil {
				alloc1, _, _ := memCounters()
				st.build = append(st.build, ms(v.build))
				st.view = append(st.view, ms(v.view))
				st.srch = append(st.srch, ms(v.srch))
				st.alloc = append(st.alloc, float64(alloc1-alloc0)/1e6)
			}
			if v.err != nil || v.violated != rec.want {
				res.failed++
				if len(res.notes) < 5 {
					res.notes = append(res.notes, fmt.Sprintf("%s/%s seed %d: program violated=%v err=%v, oracle violated=%v",
						rec.kind.proto, rec.kind.spec, rec.seed, v.violated, v.err, rec.want))
				}
			}
		}
		res.marks = append(res.marks, markNow(int64(res.attempted)))
	}
	res.win = win.close(time.Now())
	return res
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
