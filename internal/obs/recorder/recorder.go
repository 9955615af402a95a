// Package recorder is the flight recorder of the observability layer:
// an obs.Sink that subscribes to a selection's trace stream and
// materializes a structured RunReport — the Pr(CS) trajectory per
// sampling round, the stratification and its sample allocation, where
// the oracle budget went (pilot / bounds / rounds, retries, faults,
// degraded queries), atom-store reuse, and per-phase wall-clock — plus a
// bounded ring of raw events for post-mortems.
//
// The same state machine replays a JSONL trace file (FromJSONL), so a
// live run's in-memory report and `physdes report trace.jsonl` agree by
// construction. Live consumers (the SSE endpoint of internal/obs/live)
// follow the per-round trajectory with RoundsSince, which delivers
// every round exactly once, in order.
package recorder

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"physdes/internal/obs"
)

// Run statuses as reported by RunReport.Status.
const (
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Round is one entry of the per-round Pr(CS) trajectory, mirroring the
// sampler's "round" trace event.
type Round struct {
	Round   int     `json:"round"`
	TSUS    int64   `json:"ts_us"`
	Samples int     `json:"samples"`
	Calls   int64   `json:"calls"`
	PrCS    float64 `json:"prcs"`
	Best    int     `json:"best"`
	Alive   int     `json:"alive"`
	Strata  int     `json:"strata,omitempty"`
	Splits  int     `json:"splits,omitempty"`
	Stable  int     `json:"stable"`
}

// SplitEvent is one Algorithm 2 stratum split.
type SplitEvent struct {
	TSUS      int64 `json:"ts_us"`
	Stratum   int   `json:"stratum"`
	LeftSize  int   `json:"left_size"`
	RightSize int   `json:"right_size"`
	Strata    int   `json:"strata"`
}

// Elimination is one configuration dropped by the elimination rule.
type Elimination struct {
	TSUS     int64   `json:"ts_us"`
	Config   int     `json:"config"`
	PairPrCS float64 `json:"pair_prcs"`
	Alive    int     `json:"alive"`
}

// StratumAlloc is the realized (Neyman-driven) sample allocation of one
// stratum: how many post-pilot allocation decisions landed on it.
type StratumAlloc struct {
	Stratum int `json:"stratum"`
	Samples int `json:"samples"`
}

// Phase is a wall-clock phase duration derived from the trace (pilot,
// derive_bounds, select).
type Phase struct {
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us"`
}

// OracleStats is the what-if call accounting of a run. Calls, Pilot and
// Bounds are cumulative counter readings at the respective trace points;
// the renderer derives the per-phase split from them.
type OracleStats struct {
	Calls           int64 `json:"calls"`
	Exhaustive      int64 `json:"exhaustive,omitempty"`
	PilotCalls      int64 `json:"pilot_calls,omitempty"`
	BoundsCalls     int64 `json:"bounds_calls,omitempty"`
	Retries         int64 `json:"retries"`
	Faults          int64 `json:"faults"`
	DegradedQueries int   `json:"degraded_queries"`
}

// CacheStats is the what-if atom store's reuse, read from the metrics
// registry at snapshot time (only present when a registry is attached
// and the atom store ran). Both counts are in atoms, not probes: one probe
// may reuse some atoms and pay for others.
type CacheStats struct {
	// AtomHits counts atom lookups the store served
	// (optimizer_atom_hits_total).
	AtomHits int64 `json:"atom_hits"`
	// Atoms counts the atom costings paid (optimizer_atoms_total).
	Atoms int64 `json:"atoms"`
	// HitRate is the atom reuse, AtomHits / (AtomHits + Atoms).
	HitRate float64 `json:"hit_rate"`
}

// atomReuse reads the atom store's reuse from a registry snapshot, or
// returns nil when the store looked up no atom.
func atomReuse(snap obs.Snapshot) *CacheStats {
	hits := snap.Counters["optimizer_atom_hits_total"]
	atoms := snap.Counters["optimizer_atoms_total"]
	total := hits + atoms
	if total == 0 {
		return nil
	}
	return &CacheStats{AtomHits: hits, Atoms: atoms, HitRate: float64(hits) / float64(total)}
}

// RawEvent is one raw trace event retained in the bounded ring.
type RawEvent struct {
	Seq   int64          `json:"seq"`
	TSUS  int64          `json:"ts_us"`
	Name  string         `json:"ev"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// RunReport is the materialized view of one selection run. It is the
// JSON payload of /runs/{id}/report and the input of the `physdes
// report` renderer.
type RunReport struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Scheme       string  `json:"scheme,omitempty"`
	Strat        string  `json:"strat,omitempty"`
	N            int     `json:"n"`
	K            int     `json:"k"`
	Alpha        float64 `json:"alpha"`
	Delta        float64 `json:"delta"`
	Conservative bool    `json:"conservative,omitempty"`

	Best    int     `json:"best"`
	PrCS    float64 `json:"prcs"`
	Samples int     `json:"samples"`

	PilotSamples int `json:"pilot_samples,omitempty"`
	PilotStrata  int `json:"pilot_strata,omitempty"`

	VarianceBound float64 `json:"variance_bound,omitempty"`
	CLTMinSamples int     `json:"clt_min_samples,omitempty"`

	Strata     int `json:"strata"`
	SplitCount int `json:"split_count"`

	Oracle OracleStats `json:"oracle"`
	Cache  *CacheStats `json:"cache,omitempty"`

	Rounds       []Round        `json:"rounds,omitempty"`
	Splits       []SplitEvent   `json:"splits,omitempty"`
	Eliminations []Elimination  `json:"eliminations,omitempty"`
	Allocs       []StratumAlloc `json:"allocs,omitempty"`
	Phases       []Phase        `json:"phases,omitempty"`
	DurUS        int64          `json:"dur_us,omitempty"`

	Events []RawEvent `json:"events,omitempty"`
}

// DefaultRingSize bounds the raw-event ring of a recorder.
const DefaultRingSize = 256

// Recorder materializes a RunReport from a trace stream. It implements
// obs.Sink; attach it to a tracer (obs.NewTracerSinks / Tracer.Attach)
// alongside the JSONL writer. All methods are safe for concurrent use:
// the tracer delivers events under its own lock while HTTP handlers
// snapshot reports and follow rounds.
type Recorder struct {
	mu       sync.Mutex
	reg      *obs.Registry
	rep      RunReport
	allocs   map[int]int
	ring     []RawEvent
	ringCap  int
	ringHead int
	beginTS  int64
	finished bool
	notify   chan struct{}
}

// New returns an empty recorder for the run id.
func New(id string) *Recorder {
	return &Recorder{
		rep:     RunReport{ID: id, Status: StatusRunning, Best: -1},
		allocs:  map[int]int{},
		ringCap: DefaultRingSize,
		notify:  make(chan struct{}),
	}
}

// WithMetrics attaches a registry; Report then includes atom-store reuse
// read from it. Returns the recorder for chaining.
func (r *Recorder) WithMetrics(reg *obs.Registry) *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	return r
}

// WithRingSize bounds the raw-event ring to n events (default
// DefaultRingSize; 0 disables the ring). Returns the recorder for
// chaining.
func (r *Recorder) WithRingSize(n int) *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n >= 0 {
		r.ringCap = n
		r.ring, r.ringHead = nil, 0
	}
	return r
}

// ID returns the run id.
func (r *Recorder) ID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.ID
}

// Event implements obs.Sink.
func (r *Recorder) Event(e obs.Event) {
	var attrs map[string]any
	if len(e.Attrs) > 0 {
		attrs = make(map[string]any, len(e.Attrs))
		for _, kv := range e.Attrs {
			attrs[kv.Key] = kv.Value
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apply(e.Seq, e.TSUS, e.DurUS, e.Name, attrs)
}

// Flush implements obs.Sink; the recorder buffers nothing.
func (r *Recorder) Flush() error { return nil }

// Finish marks the run complete. A nil err means success; context
// cancellation maps to StatusCancelled, anything else to StatusFailed.
// Finish wakes every RoundsSince follower so live streams terminate.
func (r *Recorder) Finish(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.rep.Status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.rep.Status = StatusCancelled
		r.rep.Error = err.Error()
	default:
		r.rep.Status = StatusFailed
		r.rep.Error = err.Error()
	}
	r.finished = true
	r.wake()
}

// RoundsSince returns the rounds recorded after index from (so the
// caller's next call passes from+len(rounds)), whether the run has
// finished, and a channel closed on the next change. Following the
// pattern
//
//	idx := 0
//	for {
//		rounds, done, changed := rec.RoundsSince(idx)
//		deliver(rounds); idx += len(rounds)
//		if done && len(rounds) == 0 { break }
//		if len(rounds) == 0 { <-changed }
//	}
//
// delivers every round exactly once, in order: rounds are append-only
// and the snapshot + channel are taken atomically, so an append racing
// the caller either shows up in rounds now or closes changed.
func (r *Recorder) RoundsSince(from int) (rounds []Round, done bool, changed <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(r.rep.Rounds) {
		rounds = append(rounds, r.rep.Rounds[from:]...)
	}
	return rounds, r.finished, r.notify
}

// Report snapshots the current state of the run. The returned report is
// a copy safe to marshal or render while the run keeps emitting.
func (r *Recorder) Report() *RunReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	rep.Rounds = append([]Round(nil), r.rep.Rounds...)
	rep.Splits = append([]SplitEvent(nil), r.rep.Splits...)
	rep.Eliminations = append([]Elimination(nil), r.rep.Eliminations...)
	rep.Phases = append([]Phase(nil), r.rep.Phases...)
	rep.Allocs = r.allocSnapshot()
	rep.Events = r.ringSnapshot()
	if r.reg != nil {
		rep.Cache = atomReuse(r.reg.Snapshot())
	}
	return &rep
}

// wake closes and replaces the change channel (mu held).
func (r *Recorder) wake() {
	close(r.notify)
	r.notify = make(chan struct{})
}

func (r *Recorder) allocSnapshot() []StratumAlloc {
	out := make([]StratumAlloc, 0, len(r.allocs))
	for h, n := range r.allocs {
		out = append(out, StratumAlloc{Stratum: h, Samples: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stratum < out[j].Stratum })
	return out
}

func (r *Recorder) ringSnapshot() []RawEvent {
	if len(r.ring) == 0 {
		return nil
	}
	out := make([]RawEvent, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		out = append(out, r.ring[(r.ringHead+i)%len(r.ring)])
	}
	return out
}

func (r *Recorder) pushRing(e RawEvent) {
	if r.ringCap <= 0 {
		return
	}
	if len(r.ring) < r.ringCap {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.ringHead] = e
	r.ringHead = (r.ringHead + 1) % len(r.ring)
}

// apply folds one trace event into the report (mu held). Unknown events
// land in the ring only, so the recorder tolerates schema growth.
func (r *Recorder) apply(seq, ts, dur int64, name string, a map[string]any) {
	r.pushRing(RawEvent{Seq: seq, TSUS: ts, Name: name, Attrs: a})
	switch name {
	case "select.begin":
		r.beginTS = ts
		r.rep.Scheme = astr(a, "scheme")
		r.rep.Strat = astr(a, "strat")
		r.rep.N = aint(a, "n")
		r.rep.K = aint(a, "k")
		r.rep.Alpha = anum(a, "alpha")
		r.rep.Delta = anum(a, "delta")
		r.rep.Conservative = abool(a, "conservative")
	case "derive_bounds.end":
		r.rep.VarianceBound = anum(a, "variance_bound")
		r.rep.CLTMinSamples = aint(a, "clt_min_samples")
		r.rep.Oracle.BoundsCalls = ai64(a, "calls")
		r.rep.Phases = append(r.rep.Phases, Phase{Name: "derive_bounds", DurUS: dur})
	case "pilot.done":
		r.rep.PilotSamples = aint(a, "samples")
		r.rep.PilotStrata = aint(a, "strata")
		r.rep.Oracle.PilotCalls = ai64(a, "calls")
		r.rep.Phases = append(r.rep.Phases, Phase{Name: "pilot", DurUS: ts - r.beginTS})
	case "round":
		rd := Round{
			Round:   aint(a, "round"),
			TSUS:    ts,
			Samples: aint(a, "samples"),
			Calls:   ai64(a, "calls"),
			PrCS:    anum(a, "prcs"),
			Best:    aint(a, "best"),
			Alive:   aint(a, "alive"),
			Strata:  aint(a, "strata"),
			Splits:  aint(a, "splits"),
			Stable:  aint(a, "stable"),
		}
		r.rep.Rounds = append(r.rep.Rounds, rd)
		r.rep.Best = rd.Best
		r.rep.PrCS = rd.PrCS
		r.rep.Samples = rd.Samples
		r.rep.Oracle.Calls = rd.Calls
		if rd.Strata > 0 {
			r.rep.Strata = rd.Strata
		}
		if rd.Splits > 0 {
			r.rep.SplitCount = rd.Splits
		}
		r.wake()
	case "alloc":
		r.allocs[aint(a, "stratum")]++
	case "split":
		// Delta-scheme splits name the stratum; independent-scheme splits
		// name the configuration whose stratification split.
		st, ok := lookup(a, "stratum")
		if !ok {
			st, _ = lookup(a, "config")
		}
		r.rep.Splits = append(r.rep.Splits, SplitEvent{
			TSUS:      ts,
			Stratum:   int(st),
			LeftSize:  aint(a, "left_size"),
			RightSize: aint(a, "right_size"),
			Strata:    aint(a, "strata"),
		})
	case "eliminate":
		r.rep.Eliminations = append(r.rep.Eliminations, Elimination{
			TSUS:     ts,
			Config:   aint(a, "config"),
			PairPrCS: anum(a, "pair_prcs"),
			Alive:    aint(a, "alive"),
		})
	case "select.end":
		r.rep.Best = aint(a, "best")
		r.rep.PrCS = anum(a, "prcs")
		r.rep.Samples = aint(a, "sampled")
		r.rep.Oracle.Calls = ai64(a, "calls")
		r.rep.Oracle.Exhaustive = ai64(a, "exhaustive")
		if v, ok := lookup(a, "strata"); ok {
			r.rep.Strata = int(v)
		}
		if v, ok := lookup(a, "splits"); ok {
			r.rep.SplitCount = int(v)
		}
		r.rep.Oracle.DegradedQueries = aint(a, "degraded")
		r.rep.Oracle.Retries = ai64(a, "retries")
		r.rep.Oracle.Faults = ai64(a, "faults")
		r.rep.DurUS = dur
		r.rep.Phases = append(r.rep.Phases, Phase{Name: "select", DurUS: dur})
		// The span only ends on success; failures are reported via Finish.
		r.rep.Status = StatusDone
		r.finished = true
		r.wake()
	}
}

// FromJSONL replays a JSONL trace (as written by the tracer's JSONL
// sink) through the recorder state machine and returns the resulting
// report. A trace without a select.end event yields Status "running" —
// an interrupted run's partial trace renders as such.
func FromJSONL(rd io.Reader) (*RunReport, error) {
	rec := New("trace")
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("recorder: trace line %d: %w", line, err)
		}
		name, _ := m["ev"].(string)
		if name == "" {
			return nil, fmt.Errorf("recorder: trace line %d: missing \"ev\" field", line)
		}
		seq, ts, dur := ai64(m, "seq"), ai64(m, "ts_us"), ai64(m, "dur_us")
		delete(m, "seq")
		delete(m, "ts_us")
		delete(m, "ev")
		delete(m, "span")
		delete(m, "dur_us")
		if len(m) == 0 {
			m = nil
		}
		rec.mu.Lock()
		rec.apply(seq, ts, dur, name, m)
		rec.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("recorder: reading trace: %w", err)
	}
	return rec.Report(), nil
}

// lookup extracts a numeric attribute: trace KVs carry Go ints and
// floats, JSONL replay carries float64.
func lookup(a map[string]any, key string) (float64, bool) {
	switch v := a[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

func anum(a map[string]any, key string) float64 {
	v, _ := lookup(a, key)
	return v
}

func aint(a map[string]any, key string) int {
	v, _ := lookup(a, key)
	return int(v)
}

func ai64(a map[string]any, key string) int64 {
	v, _ := lookup(a, key)
	return int64(v)
}

func astr(a map[string]any, key string) string {
	s, _ := a[key].(string)
	return s
}

func abool(a map[string]any, key string) bool {
	b, _ := a[key].(bool)
	return b
}
