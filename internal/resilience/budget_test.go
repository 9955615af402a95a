package resilience

import (
	"sync"
	"testing"
)

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100)
	if b.Unlimited() {
		t.Fatal("capped budget reports Unlimited")
	}
	if b.Cap() != 100 || b.Used() != 0 || b.Exhausted() {
		t.Fatalf("fresh budget: cap=%d used=%d exhausted=%v",
			b.Cap(), b.Used(), b.Exhausted())
	}
	if got := b.Charge(40); got != 40 {
		t.Fatalf("Charge(40) = %d, want 40", got)
	}
	if b.Exhausted() {
		t.Fatal("exhausted after 40 of 100")
	}
	b.Charge(-5) // ignored
	if b.Used() != 40 {
		t.Fatalf("negative charge changed usage: %d", b.Used())
	}
	b.Charge(60)
	if !b.Exhausted() {
		t.Fatal("not exhausted at cap")
	}
	// Overshoot keeps the true usage.
	b.Charge(25)
	if b.Used() != 125 || !b.Exhausted() {
		t.Fatalf("overshoot: used=%d exhausted=%v", b.Used(), b.Exhausted())
	}
}

func TestBudgetUnlimitedAndNil(t *testing.T) {
	for _, b := range []*Budget{nil, NewBudget(0), NewBudget(-7)} {
		if !b.Unlimited() || b.Exhausted() {
			t.Fatalf("budget %+v: unlimited=%v exhausted=%v", b, b.Unlimited(), b.Exhausted())
		}
		if b.Cap() != 0 {
			t.Fatalf("unlimited Cap = %d", b.Cap())
		}
	}
	var nb *Budget
	if nb.Charge(10) != 0 || nb.Used() != 0 {
		t.Fatal("nil budget must absorb charges")
	}
	ub := NewBudget(0)
	ub.Charge(1 << 40)
	if ub.Exhausted() {
		t.Fatal("unlimited budget exhausted")
	}
}

// TestBudgetConcurrentCharge pins that concurrent charges lose nothing:
// the tenant accounting in the serve layer charges from many runner
// goroutines at once.
func TestBudgetConcurrentCharge(t *testing.T) {
	b := NewBudget(1 << 30)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Charge(3)
			}
		}()
	}
	wg.Wait()
	if want := int64(workers * per * 3); b.Used() != want {
		t.Fatalf("concurrent charges lost updates: used=%d want=%d", b.Used(), want)
	}
}
