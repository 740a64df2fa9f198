package distsweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// addGoldenSeed seeds f with a committed wire golden, so the fuzzer starts
// from a well-formed message with every field set.
func addGoldenSeed(f *testing.F, name string) {
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
}

// FuzzBatchDecode feeds arbitrary bytes to the worker's batch decode and
// validation: neither may panic, and a batch whose jobs all validate must
// survive a JSON encode→decode unchanged, so what a worker runs is what the
// coordinator sent.
func FuzzBatchDecode(f *testing.F) {
	addGoldenSeed(f, "batch.golden.json")
	f.Add([]byte(`{"version":1,"id":1,"jobs":[{"profile":{},"config":{},"seed":1,"insts":1}]}`))
	f.Add([]byte(`{"version":1,"id":1,"jobs":[{"profile":{},"config":{},"seed":1,"insts":9223372036854775807}]}`))
	f.Add([]byte(`{"version":1,"id":1,"jobs":[{"config":{"icache":{"SizeBytes":8192,` +
		`"LineBytes":4294967296,"Assoc":4294967296}}}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var b Batch
		if err := json.Unmarshal(in, &b); err != nil {
			return
		}
		for _, job := range b.Jobs {
			if job.Validate() != nil {
				return
			}
		}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("re-encoding a valid batch: %v", err)
		}
		var back Batch
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("re-decoding a valid batch: %v", err)
		}
		if !reflect.DeepEqual(back, b) {
			t.Fatalf("valid batch did not survive JSON:\n got: %+v\nwant: %+v", back, b)
		}
	})
}

// FuzzBatchResultDecode feeds arbitrary bytes to the coordinator's result
// decode: the self-check it runs on every returned job must not panic,
// whether or not the job captured windows or recorded misses.
func FuzzBatchResultDecode(f *testing.F) {
	addGoldenSeed(f, "batchresult.golden.json")
	f.Add([]byte(`{"version":1,"id":1,"results":[{"result":{"Insts":5},"audit":{},` +
		`"window_series":[{"index":0,"end_insts":5}]}]}`))
	withBits, err := json.Marshal(BatchResult{Version: WireVersion, ID: 1, Results: []JobResult{missBitsResult()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withBits)
	var record JobSpec
	record.Config.RecordMisses = true
	f.Fuzz(func(t *testing.T, in []byte) {
		var br BatchResult
		if err := json.Unmarshal(in, &br); err != nil {
			return
		}
		for _, r := range br.Results {
			r.SelfConsistent(JobSpec{})
			r.SelfConsistent(JobSpec{CaptureWindows: true})
			r.SelfConsistent(record)
		}
	})
}
