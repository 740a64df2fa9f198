package obs

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBounds pins the fixed bucket layout: boundaries start at
// 1µs, grow by a constant factor of 10^(1/5), and land exactly on decades
// every 5 buckets.
func TestHistogramBounds(t *testing.T) {
	bounds := histogramBounds()
	if len(bounds) != numHistBuckets {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), numHistBuckets)
	}
	if bounds[0] != 1e-6 {
		t.Errorf("bounds[0] = %g, want 1e-6", bounds[0])
	}
	g := math.Pow(10, 1.0/histBucketsPerDecade)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %g <= %g", i, bounds[i], bounds[i-1])
		}
		ratio := bounds[i] / bounds[i-1]
		if math.Abs(ratio-g) > 1e-9 {
			t.Errorf("growth at bucket %d = %g, want %g", i, ratio, g)
		}
	}
	for d := 0; d <= histDecades; d++ {
		i := d * histBucketsPerDecade
		want := histMin * math.Pow(10, float64(d))
		if math.Abs(bounds[i]-want)/want > 1e-12 {
			t.Errorf("decade boundary %d = %g, want %g", d, bounds[i], want)
		}
	}
}

// TestHistogramBucketing covers the edge cases of value-to-bucket mapping:
// exact boundaries are inclusive, zero and negatives land in the first
// bucket, and out-of-range and NaN values land in the overflow bucket.
func TestHistogramBucketing(t *testing.T) {
	bounds := histogramBounds()
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{1e-9, 0},
		{bounds[0], 0},
		{bounds[0] * 1.0001, 1},
		{bounds[7], 7},
		{bounds[len(bounds)-1], numHistBuckets - 1},
		{bounds[len(bounds)-1] * 2, numHistBuckets},
		{math.Inf(1), numHistBuckets},
		{math.NaN(), numHistBuckets},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramSumCount checks the scalar accumulators.
func TestHistogramSumCount(t *testing.T) {
	h := &Histogram{}
	want := 0.0
	for _, v := range []float64{0.001, 0.002, 0.5, 12} {
		h.Observe(v)
		want += v
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-want) > 1e-12 {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
}

// TestHistogramConcurrentObserve drives Observe from several goroutines (the
// race detector covers the atomics) and checks nothing is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("Count = %d, want %d", got, workers*per)
	}
	if s := h.Sum(); s <= 0 || s >= workers*per {
		t.Errorf("Sum = %g out of range (0, %d)", s, workers*per)
	}
}

// parsedHistogram is the round-trip target of the exposition parser.
type parsedHistogram struct {
	bounds []string // le labels in order, excluding +Inf
	cum    []int64  // cumulative counts per le label, including +Inf last
	sum    float64
	count  int64
}

// parseHistogramText parses the Prometheus text exposition of one histogram
// out of a full registry dump.
func parseHistogramText(t *testing.T, text, name string) parsedHistogram {
	t.Helper()
	var p parsedHistogram
	sawType := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "# TYPE "+name+" histogram":
			sawType = true
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			le, countStr, ok := strings.Cut(rest, "\"} ")
			if !ok {
				t.Fatalf("malformed bucket line %q", line)
			}
			n, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			if le != "+Inf" {
				p.bounds = append(p.bounds, le)
			}
			p.cum = append(p.cum, n)
		case strings.HasPrefix(line, name+"_sum "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+"_sum "), 64)
			if err != nil {
				t.Fatalf("sum line %q: %v", line, err)
			}
			p.sum = v
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			p.count = v
		}
	}
	if !sawType {
		t.Fatalf("no TYPE histogram line for %q in exposition:\n%s", name, text)
	}
	return p
}

// TestHistogramExpositionRoundTrip writes a registry holding a histogram
// (plus a counter, to prove the types coexist sorted by name) and parses the
// text back: the cumulative bucket counts, boundaries, sum, and count must
// reconstruct the histogram's state exactly.
func TestHistogramExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("acme_sims_total", "Completed runs.").Add(3)
	h := reg.Histogram("acme_cell_seconds", "Cell latency.")
	obsVals := []float64{2e-6, 5e-4, 5e-4, 0.03, 7, 1e9}
	for _, v := range obsVals {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	p := parseHistogramText(t, sb.String(), "acme_cell_seconds")

	if len(p.cum) != numHistBuckets+1 {
		t.Fatalf("parsed %d bucket lines, want %d", len(p.cum), numHistBuckets+1)
	}
	for i, le := range p.bounds {
		if want := formatBound(histogramBounds()[i]); le != want {
			t.Errorf("bucket %d le = %q, want %q", i, le, want)
		}
	}
	// Cumulative counts must be non-decreasing and reconstruct the per-bucket
	// counts the histogram holds.
	var cum int64
	for i := 0; i < numHistBuckets; i++ {
		cum += h.counts[i].Load()
		if p.cum[i] != cum {
			t.Errorf("cumulative count at bucket %d = %d, want %d", i, p.cum[i], cum)
		}
	}
	if p.cum[numHistBuckets] != int64(len(obsVals)) {
		t.Errorf("+Inf cumulative = %d, want %d", p.cum[numHistBuckets], len(obsVals))
	}
	if p.count != h.Count() {
		t.Errorf("parsed count = %d, want %d", p.count, h.Count())
	}
	if math.Abs(p.sum-h.Sum()) > 1e-9 {
		t.Errorf("parsed sum = %g, want %g", p.sum, h.Sum())
	}
}

// TestRegistryHistogram covers the registry contract for the new type:
// same-name reuse returns the same instance, and any cross-type collision
// panics.
func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.Histogram("h", "help")
	h2 := reg.Histogram("h", "help")
	if h1 != h2 {
		t.Error("same-name Histogram returned a different instance")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: cross-type registration did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("histogram-then-counter", func() { reg.Counter("h", "") })
	mustPanic("histogram-then-gauge", func() { reg.Gauge("h", "") })
	reg.Counter("c", "")
	mustPanic("counter-then-histogram", func() { reg.Histogram("c", "") })
	reg.Gauge("g", "")
	mustPanic("gauge-then-histogram", func() { reg.Histogram("g", "") })
}
