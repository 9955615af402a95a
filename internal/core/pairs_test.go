package core

import (
	"fmt"
	"sync"
	"testing"

	"physdes/internal/faultinject"
	"physdes/internal/sampling"
)

// pairCounter is a pass-through oracle that records every (query,
// configuration) request reaching it and what the repeats of an earlier
// request charged. The sampler fans batches out over its Cost, so it is
// safe for concurrent use: a repeat holds probe exclusively while it
// measures its charge, so no concurrent probe's call lands in the count.
type pairCounter struct {
	inner sampling.Oracle
	probe sync.RWMutex

	mu           sync.Mutex
	seen         map[sampling.Pair]bool
	requests     int
	repeats      []sampling.Pair
	repeatCharge int64 // optimizer calls charged by repeats
}

func newPairCounter(inner sampling.Oracle) *pairCounter {
	return &pairCounter{inner: inner, seen: make(map[sampling.Pair]bool)}
}

// note records the request and reports whether it repeats an earlier one.
func (c *pairCounter) note(p sampling.Pair) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	repeat := c.seen[p]
	if repeat {
		c.repeats = append(c.repeats, p)
	}
	c.seen[p] = true
	return repeat
}

func (c *pairCounter) Cost(i, j int) float64 {
	if !c.note(sampling.Pair{Q: i, J: j}) {
		c.probe.RLock()
		defer c.probe.RUnlock()
		return c.inner.Cost(i, j)
	}
	c.probe.Lock()
	defer c.probe.Unlock()
	before := c.inner.Calls()
	v := c.inner.Cost(i, j)
	c.repeatCharge += c.inner.Calls() - before
	return v
}

func (c *pairCounter) N() int       { return c.inner.N() }
func (c *pairCounter) K() int       { return c.inner.K() }
func (c *pairCounter) Calls() int64 { return c.inner.Calls() }

// TestSelectNeverRepeatsAPair pins the request pattern the atom store
// relies on in place of a per-Select memo table. The pilot and later draws
// take each stratum's unsampled order, Delta splits partition only the
// unsampled tail, and a Delta row costs each live configuration once, so
// a Delta selection requests each (query, configuration) pair at most
// once. An Independent split instead restarts both children with a fresh
// member order, so an Independent run that splits may request a pair
// again; the pair's atoms are all stored by then, so the repeat charges
// no optimizer call, exactly as a memo hit did.
func TestSelectNeverRepeatsAPair(t *testing.T) {
	opt, w, space := scenario(t, 1500, 10, 7)
	// Conservative mode derives bounds over the whole workload first; a
	// smaller fixture keeps that cell quick under the race detector.
	copt, cw, cspace := scenario(t, 300, 6, 21)
	type cell struct {
		scheme       sampling.Scheme
		strat        sampling.StratMode
		conservative bool
	}
	cells := []cell{
		{sampling.Delta, sampling.Progressive, false},
		{sampling.Delta, sampling.Fine, false},
		{sampling.Independent, sampling.Progressive, false},
		{sampling.Independent, sampling.Fine, false},
		{sampling.Delta, sampling.Progressive, true},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%s", c.scheme, c.strat)
		if c.conservative {
			name += "/conservative"
		}
		t.Run(name, func(t *testing.T) {
			var ref *pairCounter
			var refSel *Selection
			for _, p := range []int{1, 8} {
				o := DefaultOptions(5)
				o.Scheme, o.Strat, o.Parallelism, o.Conservative = c.scheme, c.strat, p, c.conservative
				var counter *pairCounter
				o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
					counter = newPairCounter(inner)
					return counter
				}
				var sel *Selection
				var err error
				if c.conservative {
					sel, err = Select(copt, cw, cspace, o)
				} else {
					sel, err = Select(opt, w, space, o)
				}
				if err != nil {
					t.Fatal(err)
				}
				if counter.requests == 0 {
					t.Fatalf("P=%d: the selection requested no pair", p)
				}
				if n := len(counter.repeats); n > 0 && (c.scheme != sampling.Independent || sel.Splits == 0) {
					t.Errorf("P=%d: %d of %d requests repeat a pair, first %+v",
						p, n, counter.requests, counter.repeats[0])
				}
				if counter.repeatCharge != 0 {
					t.Errorf("P=%d: %d repeated requests charged %d optimizer calls, want 0",
						p, len(counter.repeats), counter.repeatCharge)
				}
				if ref == nil {
					ref, refSel = counter, sel
					continue
				}
				if counter.requests != ref.requests || len(counter.repeats) != len(ref.repeats) ||
					sel.OptimizerCalls != refSel.OptimizerCalls {
					t.Errorf("P=%d: %d requests, %d repeats, %d calls; P=1: %d, %d, %d", p,
						counter.requests, len(counter.repeats), sel.OptimizerCalls,
						ref.requests, len(ref.repeats), refSel.OptimizerCalls)
				}
			}
			// Keep the fixture honest: the Delta split path and the
			// Independent repeat path both run.
			switch {
			case c.scheme == sampling.Delta && c.strat == sampling.Progressive && refSel.Splits == 0:
				t.Error("fixture never splits a Delta stratum")
			case c.scheme == sampling.Independent && c.strat == sampling.Progressive && len(ref.repeats) == 0:
				t.Error("fixture never repeats an Independent pair")
			}
		})
	}
}

// TestSelectRetriesChargeNothing pins the other half of the argument:
// resilience retries re-probe a pair, but by then its atoms are stored,
// so a run whose transient faults are all retried away bills exactly the
// fault-free run's optimizer calls.
func TestSelectRetriesChargeNothing(t *testing.T) {
	opt, w, space := scenario(t, 1500, 10, 7)
	for _, scheme := range []sampling.Scheme{sampling.Delta, sampling.Independent} {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", scheme, p), func(t *testing.T) {
				o := DefaultOptions(5)
				o.Scheme, o.Parallelism = scheme, p
				clean, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatal(err)
				}
				// 10% per-attempt transient faults; 8 retries leave each probe
				// a 1e-9 chance of failing for good.
				o.MaxRetries = 8
				o.WrapOracle = func(inner sampling.Oracle) sampling.Oracle {
					return faultinject.New(inner, faultinject.Options{Seed: 41, TransientRate: 0.1})
				}
				faulty, err := Select(opt, w, space, o)
				if err != nil {
					t.Fatal(err)
				}
				if faulty.OracleRetries == 0 {
					t.Fatal("fixture injected no retried fault")
				}
				if faulty.OptimizerCalls != clean.OptimizerCalls {
					t.Errorf("faulty run billed %d optimizer calls (%d retries), fault-free run %d",
						faulty.OptimizerCalls, faulty.OracleRetries, clean.OptimizerCalls)
				}
				if faulty.BestIndex != clean.BestIndex || faulty.SampledQueries != clean.SampledQueries {
					t.Errorf("faulty run diverged: best %d sampled %d, fault-free best %d sampled %d",
						faulty.BestIndex, faulty.SampledQueries, clean.BestIndex, clean.SampledQueries)
				}
			})
		}
	}
}
