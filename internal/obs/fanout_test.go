package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// memSink records every delivered event.
type memSink struct {
	mu       sync.Mutex
	events   []Event
	flushErr error
	flushes  int
}

func (s *memSink) Event(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *memSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	return s.flushErr
}

func (s *memSink) snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

func TestTracerFanOut(t *testing.T) {
	a, b := &memSink{}, &memSink{}
	tr := NewTracerSinks(a, b, nil) // nil sinks are dropped
	tr.Emit("round", KV{Key: "round", Value: 1})
	span := tr.Begin("select", KV{Key: "n", Value: 10})
	span.End(KV{Key: "best", Value: 2})

	ea, eb := a.snapshot(), b.snapshot()
	if len(ea) != 3 || len(eb) != 3 {
		t.Fatalf("sinks saw %d/%d events, want 3 each", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Seq != int64(i+1) || eb[i].Seq != int64(i+1) {
			t.Errorf("event %d: seq %d/%d, want %d (gapless, shared)", i, ea[i].Seq, eb[i].Seq, i+1)
		}
		if ea[i].Name != eb[i].Name {
			t.Errorf("event %d: names %q vs %q", i, ea[i].Name, eb[i].Name)
		}
	}
	if ea[1].Name != "select.begin" || ea[2].Name != "select.end" {
		t.Errorf("span pair = %q, %q", ea[1].Name, ea[2].Name)
	}
	if ea[1].Span == 0 || ea[1].Span != ea[2].Span {
		t.Errorf("span ids = %d, %d", ea[1].Span, ea[2].Span)
	}
	if len(ea[2].Attrs) != 1 || ea[2].Attrs[0].Key != "best" {
		t.Errorf("end attrs = %+v", ea[2].Attrs)
	}
}

func TestTracerAttachMidStream(t *testing.T) {
	a := &memSink{}
	tr := NewTracerSinks(a)
	tr.Emit("round", KV{Key: "round", Value: 1})

	late := &memSink{}
	tr.Attach(late)
	tr.Attach(nil) // no-op
	tr.Emit("round", KV{Key: "round", Value: 2})

	if got := late.snapshot(); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("late sink saw %+v, want just the post-attach event", got)
	}
	if got := a.snapshot(); len(got) != 2 {
		t.Fatalf("original sink saw %d events, want 2", len(got))
	}

	var nilTracer *Tracer
	nilTracer.Attach(a) // must not panic
}

func TestTracerFlushPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	a := &memSink{flushErr: boom}
	b := &memSink{}
	tr := NewTracerSinks(a, b)
	if err := tr.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want %v", err, boom)
	}
	if a.flushes != 1 || b.flushes != 1 {
		t.Fatalf("flush fan-out = %d/%d, want 1/1 (error must not short-circuit)", a.flushes, b.flushes)
	}
	if err := tr.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

func TestTracerConcurrentFanOutOrdering(t *testing.T) {
	a, b := &memSink{}, &memSink{}
	tr := NewTracerSinks(a, b)
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit("round", KV{Key: "round", Value: i})
			}
		}()
	}
	wg.Wait()
	ea, eb := a.snapshot(), b.snapshot()
	if len(ea) != goroutines*per || len(eb) != goroutines*per {
		t.Fatalf("saw %d/%d events, want %d", len(ea), len(eb), goroutines*per)
	}
	for i := range ea {
		if ea[i].Seq != int64(i+1) {
			t.Fatalf("sink a: position %d has seq %d — delivery must be gapless and ordered", i, ea[i].Seq)
		}
		if eb[i].Seq != ea[i].Seq {
			t.Fatalf("sinks disagree at position %d: %d vs %d", i, ea[i].Seq, eb[i].Seq)
		}
	}
}

func TestSnapshotSurfacesQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("select_round_seconds")
	for i := 0; i < 90; i++ {
		h.Observe(0.010) // fast rounds
	}
	for i := 0; i < 10; i++ {
		h.Observe(10.0) // slow tail
	}
	hs := r.Snapshot().Histograms["select_round_seconds"]
	if hs.P50 <= 0 || hs.P90 <= 0 || hs.P99 <= 0 {
		t.Fatalf("quantiles not surfaced: %+v", hs)
	}
	if hs.P50 != h.Quantile(0.50) || hs.P90 != h.Quantile(0.90) || hs.P99 != h.Quantile(0.99) {
		t.Fatalf("snapshot quantiles disagree with Histogram.Quantile: %+v", hs)
	}
	if hs.P99 < hs.P90 || hs.P90 < hs.P50 {
		t.Fatalf("quantiles not monotone: %+v", hs)
	}
	if hs.P50 > 1 || hs.P99 < 10 {
		t.Fatalf("quantiles implausible for the data: %+v", hs)
	}
	p50, p90, p99 := h.Quantiles()
	if p50 != h.Quantile(0.50) || p90 != h.Quantile(0.90) || p99 != h.Quantile(0.99) {
		t.Fatal("Quantiles() disagrees with Quantile()")
	}

	// Empty histograms surface no quantiles (and WriteJSON omits them).
	r2 := NewRegistry()
	r2.Histogram("empty_seconds")
	if hs := r2.Snapshot().Histograms["empty_seconds"]; hs.P50 != 0 || hs.P99 != 0 {
		t.Fatalf("empty histogram grew quantiles: %+v", hs)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"p99"`) {
		t.Fatalf("WriteJSON missing quantiles:\n%s", sb.String())
	}
}
