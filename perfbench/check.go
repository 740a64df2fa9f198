package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// Output checks. Every pass turns what the workload produced into outputs:
// one per rendered artifact or per simulated cell, each with a sha256 digest
// and the number of cells it covers. A cell fails when its output carries an
// error from a check that holds for any seed (an audit, a round trip, a
// fleet retry), when its digest differs from the one stored for the default
// seed, or when a later pass of the same run produced a different digest.

// defaultSeed is the seed the stored digests of the seeded workloads hold
// for. Workloads whose inputs do not depend on the seed are checked against
// their stored digests at every seed.
const defaultSeed = 1

// output is one checked product of a pass.
type output struct {
	name   string
	cells  int
	digest string
	err    error
}

// digest hashes the concatenation of parts.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestJSON hashes v's JSON encoding.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// storedOutputs are one workload's digests at Seed.
type storedOutputs struct {
	Seed    uint64            `json:"seed"`
	Outputs map[string]string `json:"outputs"`
}

// digestFile maps workload name to its stored digests.
type digestFile map[string]storedOutputs

//go:embed digests.json
var storedDigests []byte

func loadDigests(b []byte) (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("stored digests: %w", err)
	}
	return d, nil
}

// checker counts attempted and failed cells across the passes of one run.
type checker struct {
	// want holds the stored digests that apply to this run; nil when none do.
	want map[string]string
	// first holds each output's digest from the first pass that produced it.
	first     map[string]string
	attempted int
	failed    int
	reported  int
}

func newChecker(w workload, seed uint64, stored digestFile) *checker {
	c := &checker{first: map[string]string{}}
	if s, ok := stored[w.name]; ok && (!w.seeded || s.Seed == seed) {
		c.want = s.Outputs
	}
	return c
}

// pass checks one pass. A pass that returned an error counts as one failed
// attempt on top of whatever outputs it did produce.
func (c *checker) pass(outs []output, err error) {
	if err != nil {
		c.attempted++
		c.fail(1, "pass failed: %v", err)
	}
	for _, o := range outs {
		n := max(1, o.cells)
		c.attempted += n
		if msg := c.problem(o); msg != "" {
			c.fail(n, "%s: %s", o.name, msg)
		}
	}
}

// extra counts outputs checked outside the workload's own (the traced run's
// replay); bad holds one error per failed check.
func (c *checker) extra(cells int, bad []error) {
	c.attempted += cells
	for _, err := range bad {
		c.fail(1, "%v", err)
	}
}

func (c *checker) problem(o output) string {
	if o.err != nil {
		return o.err.Error()
	}
	if c.want != nil {
		w, ok := c.want[o.name]
		if !ok {
			return "no stored digest"
		}
		if w != o.digest {
			return fmt.Sprintf("digest %.12s, stored %.12s", o.digest, w)
		}
	}
	if f, ok := c.first[o.name]; ok && f != o.digest {
		return fmt.Sprintf("digest %.12s differs from the first pass's %.12s", o.digest, f)
	}
	c.first[o.name] = o.digest
	return ""
}

// fail records n failed cells and reports the first few reasons on stderr.
func (c *checker) fail(n int, format string, args ...any) {
	c.failed += n
	if c.reported < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	c.reported++
}

// writeDigests runs one pass of every workload at the default seed and
// writes the digests of its outputs to path. It refuses to store digests of
// outputs that fail a seed-independent check.
func writeDigests(path string, sz sizes) error {
	file := digestFile{}
	for _, w := range workloads {
		inst, err := w.setup(sz, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		out, err := inst.pass(passEnv{})
		inst.close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		s := storedOutputs{Outputs: map[string]string{}}
		if w.seeded {
			s.Seed = defaultSeed
		}
		for _, o := range out.outputs {
			if o.err != nil {
				return fmt.Errorf("%s: %s: %w", w.name, o.name, o.err)
			}
			s.Outputs[o.name] = o.digest
		}
		file[w.name] = s
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
