package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/obs"
)

func win(idx int, start, end, lost int64) obs.WindowRecord {
	r := obs.WindowRecord{Index: idx, StartInsts: start, EndInsts: end}
	r.Lost[0] = lost
	return r
}

func TestOracleSelect(t *testing.T) {
	pols := core.Policies()
	series := map[core.Policy][]obs.WindowRecord{}
	// Three windows; winners by construction: Optimistic, Pessimistic, then
	// a three-way tie at 5 that must resolve to the earliest policy (Oracle).
	lost := map[core.Policy][3]int64{
		core.Oracle:      {9, 9, 5},
		core.Optimistic:  {3, 9, 5},
		core.Resume:      {9, 9, 9},
		core.Pessimistic: {9, 2, 5},
		core.Decode:      {9, 9, 9},
	}
	for _, pol := range pols {
		for i := 0; i < 3; i++ {
			series[pol] = append(series[pol], win(i, int64(i)*100, int64(i+1)*100, lost[pol][i]))
		}
	}
	winners, err := OracleSelect(series, pols)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Policy{core.Optimistic, core.Pessimistic, core.Oracle}
	if !reflect.DeepEqual(winners, want) {
		t.Errorf("winners = %v, want %v", winners, want)
	}

	// Misaligned boundaries are an error, not a silent argmin over
	// different instructions.
	bad := map[core.Policy][]obs.WindowRecord{}
	for _, pol := range pols {
		bad[pol] = append([]obs.WindowRecord(nil), series[pol]...)
	}
	bad[core.Decode][1].EndInsts += 7
	if _, err := OracleSelect(bad, pols); err == nil {
		t.Error("misaligned window boundaries not rejected")
	}
	short := map[core.Policy][]obs.WindowRecord{}
	for _, pol := range pols {
		short[pol] = series[pol]
	}
	short[core.Resume] = series[core.Resume][:2]
	if _, err := OracleSelect(short, pols); err == nil {
		t.Error("length-mismatched series not rejected")
	}
}

// oracleOpt is the study configuration every identity arm below shares.
func oracleOpt() Options {
	return Options{Insts: 60_000, Benchmarks: []string{"gcc", "groff"}}
}

const oracleTestInterval = 5_000

// renderOracle runs the study and flattens every rendered artifact plus the
// JSONL wire form into one byte string for identity comparison.
func renderOracle(t *testing.T, opt Options) string {
	t.Helper()
	d, err := OracleSelectorData(opt, oracleTestInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := d.CrossoverTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(d.WinnerMap())
	if err := d.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestOracleBytesIdenticalAcrossWorkers: the study renders the same bytes
// serially, on a 4-worker pool, and dispatched to a spawned 2-worker fleet.
func TestOracleBytesIdenticalAcrossWorkers(t *testing.T) {
	serial := oracleOpt()
	serial.Workers = 1
	want := renderOracle(t, serial)

	pooled := oracleOpt()
	pooled.Workers = 4
	if got := renderOracle(t, pooled); got != want {
		t.Error("4-worker pool renders the oracle study differently from serial")
	}

	remote := oracleOpt()
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   startWorkers(t, 2),
		BatchSize: 4,
	})
	if got := renderOracle(t, remote); got != want {
		t.Error("remote fleet renders the oracle study differently from serial")
	}
}

// TestOracleJSONLRoundTrip: the JSONL wire form rebuilds the same rows,
// winners, and rendered report.
func TestOracleJSONLRoundTrip(t *testing.T) {
	opt := oracleOpt()
	opt.Workers = 1
	d, err := OracleSelectorData(opt, oracleTestInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := d.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOracleJSONL(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, d.Rows) {
		t.Error("JSONL round trip changed the rows")
	}
	if back.Interval != d.Interval || !reflect.DeepEqual(back.Penalties, d.Penalties) {
		t.Errorf("round trip meta: interval %d penalties %v, want %d %v",
			back.Interval, back.Penalties, d.Interval, d.Penalties)
	}
	if back.CrossoverTable().String() != d.CrossoverTable().String() ||
		back.WinnerMap() != d.WinnerMap() {
		t.Error("JSONL round trip changed the rendered report")
	}
	if _, err := ReadOracleJSONL(strings.NewReader("")); err == nil {
		t.Error("empty JSONL accepted")
	}
	if _, err := ReadOracleJSONL(strings.NewReader(`{"v":99}`)); err == nil {
		t.Error("future schema version accepted")
	}
}

// TestOracleLayerDisabledNeutral: a plain sweep's results are bit-identical
// with the interval layer absent and present-but-disabled, and a
// window-capturing sweep's Results match a plain sweep's — capture is
// observe-only.
func TestOracleLayerDisabledNeutral(t *testing.T) {
	opt := oracleOpt()
	opt.Workers = 1
	benches, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	var cells []runCell
	for _, b := range benches {
		for _, pol := range core.Policies() {
			cells = append(cells, newCell(b, baseConfig(pol)))
		}
	}
	plain, err := runCells(opt, cells)
	if err != nil {
		t.Fatal(err)
	}

	sampled := slices.Clone(cells)
	capturing := slices.Clone(cells)
	for i := range cells {
		sampled[i].spec.Config.SampleInterval = oracleTestInterval
		capturing[i].spec.Config.SampleInterval = oracleTestInterval
		capturing[i].spec.CaptureWindows = true
	}
	for name, cs := range map[string][]runCell{"sampled": sampled, "capturing": capturing} {
		full, err := runCellsFull(opt, cs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if !reflect.DeepEqual(full[i].res, plain[i]) {
				t.Fatalf("%s run changed cell %d's Result", name, i)
			}
		}
		if name == "capturing" {
			for i := range cells {
				if len(full[i].windows) == 0 {
					t.Fatalf("capturing run returned no windows for cell %d", i)
				}
			}
		} else {
			for i := range cells {
				if full[i].windows != nil {
					t.Fatalf("non-capturing run returned windows for cell %d", i)
				}
			}
		}
	}

	// Capture without an interval is a loud error, not a silent
	// no-window sweep.
	bad := cells[0]
	bad.spec.CaptureWindows = true
	if _, err := runCellsFull(opt, []runCell{bad}); err == nil {
		t.Error("window capture without SampleInterval accepted")
	}
}

// TestStudiesRejectNegativeInterval: only a zero window width means the
// default; a negative one is an error from both interval studies, not a
// silent 10000-instruction window.
func TestStudiesRejectNegativeInterval(t *testing.T) {
	opt := oracleOpt()
	if d, err := OracleSelectorData(opt, -5, nil); err == nil {
		t.Errorf("oracle study accepted interval -5 (window = %d)", d.Interval)
	}
	if d, err := AdaptiveStudyData(opt, "phase:6", 0, -5, nil); err == nil {
		t.Errorf("adaptive study accepted interval -5 (window = %d)", d.Interval)
	}
}

// TestOracleStepModeIdentity: the full study renders identical bytes under
// the reference stepper and the skip-ahead core — the experiments-level
// face of the core series-identity suite.
func TestOracleStepModeIdentity(t *testing.T) {
	fast := oracleOpt()
	fast.Workers = 1
	fast.StepMode = core.StepSkipAhead
	ref := fast
	ref.StepMode = core.StepReference
	if renderOracle(t, fast) != renderOracle(t, ref) {
		t.Error("oracle study renders differently across step modes")
	}
}

// malformedOracleJSONL is five lines (one per policy) whose second window
// is out of order, does not start where the first ended, runs backwards in
// time, loses negative slots, and misses more lines than it references.
func malformedOracleJSONL() string {
	var b strings.Builder
	for pol := 0; pol < 5; pol++ {
		fmt.Fprintf(&b, `{"v":1,"bench":"gcc","penalty":5,"policy":%d,"interval":100,"windows":[`+
			`{"index":0,"start_insts":0,"end_insts":100,"start_cycle":0,"end_cycle":9,"lost":[10,0,0,0,0,0],"accesses":1,"misses":0,"bus_transfers":0,"bus_busy":0},`+
			`{"index":7,"start_insts":5000,"end_insts":5100,"start_cycle":9,"end_cycle":3,"lost":[-400,0,0,0,0,0],"accesses":1,"misses":5,"bus_transfers":0,"bus_busy":0}]}`+"\n", pol)
	}
	return b.String()
}

// TestReadOracleJSONLRejectsMalformedWindows is the regression for series
// that no simulation can produce: the reader used to accept them and print
// a negative static ISPI.
func TestReadOracleJSONLRejectsMalformedWindows(t *testing.T) {
	if d, err := ReadOracleJSONL(strings.NewReader(malformedOracleJSONL())); err == nil {
		t.Fatalf("malformed windows accepted:\n%s", d.CrossoverTable().String())
	}
}

// oracleJSONLine is one well-formed intervals JSONL line: a single
// 100-instruction window for gcc at 5c under policy pol.
func oracleJSONLine(pol int, interval int64) string {
	return fmt.Sprintf(`{"v":1,"bench":"gcc","penalty":5,"policy":%d,"interval":%d,"windows":[`+
		`{"index":0,"start_insts":0,"end_insts":100,"start_cycle":0,"end_cycle":40,"lost":[%d,0,0,0,0,0],"accesses":3,"misses":1,"bus_transfers":1,"bus_busy":5}]}`+"\n",
		pol, interval, 10+pol)
}

// badOracleJSONL lists inputs whose every window is well formed but whose
// records are not, each with the line the reader must reject.
func badOracleJSONL() []badJSONL {
	lines := func(intervals ...int64) string {
		var b strings.Builder
		for pol, iv := range intervals {
			b.WriteString(oracleJSONLine(pol, iv))
		}
		return b.String()
	}
	valid := lines(2500, 2500, 2500, 2500, 2500)
	return []badJSONL{
		{"adaptive policy", valid + oracleJSONLine(5, 2500), 6},
		{"unknown policy", valid + oracleJSONLine(99, 2500), 6},
		{"negative interval", lines(-5, -5, -5, -5, -5), 1},
		{"zero then 2500", lines(0, 2500, 2500, 2500, 2500), 1},
	}
}

// badJSONL is one rejected intervals input and the line it fails at.
type badJSONL struct {
	name string
	in   string
	line int
}

// TestReadOracleJSONLRejectsBadRecords: a line whose policy is not one of
// the five static ones (once silently dropped), a non-positive interval
// (once rendered as "window = -5 insts"), and a first line at interval 0
// (once skipping the mixed-interval check) are each rejected with the
// offending line's number.
func TestReadOracleJSONLRejectsBadRecords(t *testing.T) {
	var good strings.Builder
	for pol := 0; pol < 5; pol++ {
		good.WriteString(oracleJSONLine(pol, 2500))
	}
	if _, err := ReadOracleJSONL(strings.NewReader(good.String())); err != nil {
		t.Fatalf("well-formed input rejected: %v", err)
	}
	for _, c := range badOracleJSONL() {
		d, err := ReadOracleJSONL(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted:\n%s", c.name, d.CrossoverTable().String())
			continue
		}
		if want := fmt.Sprintf("line %d:", c.line); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, want)
		}
	}
}

// FuzzReadOracleJSONL: the reader never panics, and any input it accepts
// re-renders — report and JSONL — identically after a JSONL round trip.
func FuzzReadOracleJSONL(f *testing.F) {
	opt := Options{Insts: 12_000, Benchmarks: []string{"gcc"}, Workers: 1}
	d, err := OracleSelectorData(opt, 2_500, []int{5})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := d.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(malformedOracleJSONL()))
	for _, c := range badOracleJSONL() {
		f.Add([]byte(c.in))
	}
	render := func(d *OracleData) string {
		var b bytes.Buffer
		if err := d.CrossoverTable().Render(&b); err != nil {
			f.Fatal(err)
		}
		b.WriteString(d.WinnerMap())
		if err := d.WriteJSONL(&b); err != nil {
			f.Fatal(err)
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadOracleJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		want := render(d)
		var b bytes.Buffer
		if err := d.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ReadOracleJSONL(&b)
		if err != nil {
			t.Fatalf("re-reading an accepted input failed: %v", err)
		}
		if got := render(back); got != want {
			t.Fatalf("accepted input re-renders differently:\n got: %s\nwant: %s", got, want)
		}
	})
}
