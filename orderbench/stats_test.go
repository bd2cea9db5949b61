package main

import (
	"testing"
	"time"
)

func TestQuantileExact(t *testing.T) {
	xs := make([]float64, 1000) // 1, 2, …, 1000
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := tailQ(1000, 0.9); got != 0.9 {
		t.Errorf("tailQ(1000, 0.9) = %v, want 0.9", got)
	}
	if got := tailQ(50, 0.9); got != 0.8 {
		t.Errorf("tailQ(50, 0.9) = %v, want 0.8: ten samples beyond", got)
	}
	// Ten one-second chunks of 100 samples, one disturbed: the chunk
	// median ignores it, and each chunk's quantile is exact.
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i%100+1) * 1000 // µs 1..100 per chunk
		if i >= 300 && i < 400 {
			ns[i] *= 50
		}
	}
	if got := chunkedQuantile(ns, 0.9, 10); got != 90 {
		t.Errorf("chunkedQuantile = %v, want 90", got)
	}
}

// TestPaceSchedulesByTime stalls one issue and checks that later
// issues keep their due times, run late by the stall instead of being
// pushed back, and that the generator never waits for anything but
// the clock.
func TestPaceSchedulesByTime(t *testing.T) {
	const n, period, stall = 40, 2 * time.Millisecond, 30 * time.Millisecond
	start := time.Now().Add(time.Millisecond)
	var dues []time.Time
	late, err := pace(start, n, period, func(i int, due time.Time) error {
		dues = append(dues, due)
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * period); !d.Equal(want) {
			t.Fatalf("issue %d due %v after start, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
	if got := time.Duration(late[6]); got < stall-period {
		t.Errorf("issue 6 ran %v late, want at least %v: the stall must be charged to it", got, stall-period)
	}
	if total := time.Since(start); total > time.Duration(n)*period+stall {
		t.Errorf("%d issues took %v: the schedule was pushed back by the stall", n, total)
	}
}
