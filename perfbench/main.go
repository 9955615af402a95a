// Command perfbench is the repository's benchmark. It runs one named
// workload against the selection primitive (core.Select) or the advisor
// daemon's in-process HTTP handler (serve), checks every result, and
// prints its metrics as one JSON object on the last line of standard
// output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload tpcd-select --seed 1 --seconds 15 --trace 0
//
// --seed generates the inputs. The amount of work is fixed by the workload
// and --seconds (selections per second of budget, sized for a 2-core
// machine), so two builds run exactly the same selections and a faster
// build simply finishes sooner.
//
// With --trace 0 a selection workload runs its first selection once
// untimed to warm up, then times one untraced pass over its selection
// seeds, which must repeat that first selection exactly, and reports
// end-to-end metrics. With --trace 1 it makes two passes of half as many
// selections and traces the second (the serve workload repeats its daemon
// runs traced); the run checks that both passes give identical Selections
// and reports
// per-layer metrics measured from outside the program: a pass-through
// timing oracle installed through the WrapOracle seams, the obs registry
// and flight recorder attached through Options, and direct timing of the
// workload, physical, sqlparse and bounds functions.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*result, error){
	"tpcd-select":       tpcdSelect.run,
	"crm-wide":          crmWide.run,
	"tpcd-conservative": tpcdConservative.run,
	"serve-mixed":       serveMixed.run,
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
}

// work returns how many units of work a budget of p.seconds buys at
// perSecond units per second (at least one).
func (p params) work(perSecond float64) int {
	n := int(math.Ceil(p.seconds * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

// runners is the daemon's runner count, one per client, within the
// machine's cores.
func runners() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect and says why on standard output.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measurement budget; fixes the amount of work")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		//physdes:errok the exit code reports the usage error
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		//physdes:errok the exit code reports the usage error
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(params{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		//physdes:errok the exit code reports the failure
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		//physdes:errok the exit code reports the failure
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fingerprint is the count fingerprint of a set of selections. Every field
// is a deterministic function of the inputs, so two runs with the same
// seed and budget must print the same line; a difference is
// nondeterminism, not noise.
type fingerprint struct {
	selections                  int
	calls                       int64
	sampled, strata, eliminated int
	// splits is -1 when the selections' split counts are not observed
	// (the daemon's job results do not carry them).
	splits int
	picks  uint64 // FNV-1a over the chosen indices, in order
}

func (f *fingerprint) add(best int, calls int64, sampled, strata, eliminated int) {
	f.selections++
	f.calls += calls
	f.sampled += sampled
	f.strata += strata
	f.eliminated += eliminated
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], f.picks)
	binary.LittleEndian.PutUint64(b[8:], uint64(best))
	h := fnv.New64a()
	h.Write(b[:])
	f.picks = h.Sum64()
}

func (f fingerprint) String() string {
	splits := "n/a"
	if f.splits >= 0 {
		splits = strconv.Itoa(f.splits)
	}
	return fmt.Sprintf("selections=%d calls=%d sampled=%d strata=%d eliminated=%d splits=%s picks=%016x",
		f.selections, f.calls, f.sampled, f.strata, f.eliminated, splits, f.picks)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs
// (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// rateChunks is how many consecutive pieces chunkRate splits a run into.
const rateChunks = 10

// chunkRate splits a run of steps, where step i did units[i] units of work
// in secs[i] seconds, into rateChunks consecutive pieces and returns the
// median over the pieces of units per second. Unlike units over the whole
// run's wall time, the median ignores a slowdown that hits a few pieces.
func chunkRate(units, secs []float64) float64 {
	n := min(rateChunks, len(units))
	var rates []float64
	for c := 0; c < n; c++ {
		lo, hi := c*len(units)/n, (c+1)*len(units)/n
		rates = append(rates, ratio(sum(units[lo:hi]), sum(secs[lo:hi])))
	}
	return median(rates)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
