package bounds

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"physdes/internal/catalog"
	"physdes/internal/optimizer"
	"physdes/internal/physical"
	"physdes/internal/stats"
	"physdes/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// skewBox is one named interval box of the skew golden corpus.
type skewBox struct {
	name string
	ivs  []Interval
}

// skewCorpus builds the boxes testdata/skew.golden pins: 2,000 seeded
// random boxes (n from 1 to 400, scales from 1e-100 to 1e100) cycling
// through five shapes, a handful of boxes at scales where the third
// power sum under- or overflows, constant boxes, tiny-width boxes whose
// flips gain less than the climb's margin, the near-constant box of
// ROADMAP item 18, and TPC-D's derived intervals at 1K statements over
// k=15 configurations.
func skewCorpus(t *testing.T) []skewBox {
	t.Helper()
	var boxes []skewBox
	rng := stats.NewRNG(0x5ce3)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(400)
		scale := math.Pow(10, rng.Float64()*200-100)
		shape := trial % 5
		ivs := make([]Interval, n)
		for i := range ivs {
			switch shape {
			case 0: // mixed: zero-width, outliers and wide intervals
				lo := rng.Float64() * scale
				switch rng.Intn(4) {
				case 0:
					ivs[i] = Interval{Lo: lo, Hi: lo}
				case 1:
					ivs[i] = Interval{Lo: lo, Hi: lo + 10*scale*rng.Float64()}
				default:
					ivs[i] = Interval{Lo: lo, Hi: lo + scale*rng.Float64()}
				}
			case 1: // near-constant: relative spreads of 1e-12 to 1e-4
				spread := math.Pow(10, -4-8*rng.Float64())
				lo := scale * (1 + spread*rng.Float64())
				ivs[i] = Interval{Lo: lo, Hi: lo + scale*spread*rng.Float64()}
			case 2: // wide: spreads up to 100× the base
				lo := rng.Float64() * scale
				ivs[i] = Interval{Lo: lo, Hi: lo + 100*scale*rng.Float64()}
			case 3: // narrow intervals with rare far outliers
				lo := scale * (1 + 0.01*rng.Float64())
				if rng.Intn(50) == 0 {
					ivs[i] = Interval{Lo: lo, Hi: lo + 1000*scale*rng.Float64()}
				} else {
					ivs[i] = Interval{Lo: lo, Hi: lo + 0.01*scale*rng.Float64()}
				}
			default: // mostly points, a few wide
				lo := rng.Float64() * scale
				if rng.Intn(8) == 0 {
					ivs[i] = Interval{Lo: lo, Hi: lo + scale*rng.Float64()}
				} else {
					ivs[i] = Interval{Lo: lo, Hi: lo}
				}
			}
		}
		boxes = append(boxes, skewBox{fmt.Sprintf("random/%04d/shape%d/n%d", trial, shape, n), ivs})
	}

	// Scales whose second or third moments leave the normal range.
	for _, scale := range []float64{1e-160, 1e-120, 1e-105, 1e95, 1e102, 1e120, 1e140} {
		for _, n := range []int{2, 5, 40} {
			ivs := make([]Interval, n)
			for i := range ivs {
				lo := rng.Float64() * scale
				ivs[i] = Interval{Lo: lo, Hi: lo + scale*rng.Float64()}
			}
			boxes = append(boxes, skewBox{fmt.Sprintf("extreme/%g/n%d", scale, n), ivs})
		}
	}

	// Constant and degenerate boxes.
	boxes = append(boxes,
		skewBox{"constant/n1", []Interval{{Lo: 7, Hi: 7}}},
		skewBox{"constant/n30", constBox(30, 4.25)},
		skewBox{"pair/n2", []Interval{{Lo: 1, Hi: 3}, {Lo: 2, Hi: 2}}},
	)

	// Small integer costs widened by a few ulps: the skew sits near 0 and
	// some flips gain less than the climb's 1e-15 margin, which only the
	// exact comparison rejects. These are the boxes among the first
	// 16,148 of tinyWidthBoxes' stream on which a climb accepting any gain
	// takes a different flip.
	boxes = append(boxes, tinyWidthBoxes([]int{1308, 4114, 10803, 12553, 12918, 13724, 15019, 15524, 16147})...)

	// ROADMAP item 18: raw power sums cancel on near-constant intervals.
	nc := make([]Interval, 50)
	for i := range nc {
		nc[i] = Interval{Lo: 1e5, Hi: 1e5 + 0.01*float64(i%3)}
	}
	boxes = append(boxes, skewBox{"item18/near-constant/n50", nc})

	cat := catalog.TPCD(1)
	w, err := workload.GenTPCD(cat, 1_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cands := physical.EnumerateCandidates(cat, w.Analyses(), physical.CandidateOptions{Covering: true, Views: true})
	space := physical.GenerateSpace(cat, cands, 15, stats.NewRNG(12), physical.SpaceOptions{MinStructures: 3, MaxStructures: 10})
	ivs := NewDeriver(optimizer.New(cat), space...).WorkloadIntervals(w)
	boxes = append(boxes, skewBox{"tpcd/n1000/k15", ivs})
	return boxes
}

// tinyWidthBoxes returns boxes ks (ascending) of a seeded stream of 2 to
// 21 intervals over the costs 0..4, a third of zero width and the rest up
// to 63 ulps of v+1 wide, scaled down by up to 10³.
func tinyWidthBoxes(ks []int) []skewBox {
	var boxes []skewBox
	rng := stats.NewRNG(0x71e)
	for k := 0; len(boxes) < len(ks); k++ {
		n := 2 + rng.Intn(20)
		ivs := make([]Interval, n)
		for i := range ivs {
			v := float64(rng.Intn(5))
			w := (v + 1) * float64(rng.Intn(64)) * 0x1p-52 * math.Pow(10, -3*rng.Float64())
			if rng.Intn(3) == 0 {
				w = 0
			}
			ivs[i] = Interval{Lo: v, Hi: v + w}
		}
		if k == ks[len(boxes)] {
			boxes = append(boxes, skewBox{fmt.Sprintf("tiny-width/%d", k), ivs})
		}
	}
	return boxes
}

func constBox(n int, v float64) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = Interval{Lo: v, Hi: v}
	}
	return ivs
}

// TestSkewMaxGolden pins SkewMax bit for bit over skewCorpus: per box, the
// hex bits of G1 and UpperBound and the Assignments count. A climb that
// takes a single different flip changes the vertices it tries after it,
// so Assignments (or the skew it reaches) moves. Regenerate the golden
// (`go test ./internal/bounds -run TestSkewMaxGolden -update`) only for
// an intended change to the search.
func TestSkewMaxGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# box g1_bits upper_bound_bits assignments\n")
	for _, box := range skewCorpus(t) {
		res, err := SkewMax(box.ivs, 1)
		if err != nil {
			t.Fatalf("%s: %v", box.name, err)
		}
		fmt.Fprintf(&b, "%s %016x %016x %d\n", box.name,
			math.Float64bits(res.G1), math.Float64bits(res.UpperBound), res.Assignments)
	}
	got := b.String()
	path := filepath.Join("testdata", "skew.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("skew golden has %d lines, SkewMax produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d lines differ in all", bad)
	}
}
