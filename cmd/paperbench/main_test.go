package main

import (
	"sort"
	"strings"
	"testing"

	"specfetch/internal/experiments"
)

func TestAblationUsageNamesEveryAblation(t *testing.T) {
	got := strings.Split(strings.TrimPrefix(ablationUsage(), "run an ablation: "), "|")
	var want []string
	for name := range experiments.Ablations() {
		want = append(want, name)
	}
	sort.Strings(want)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("-ablation help lists %v, want %v", got, want)
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string // flags in effect
		bad   string   // flag the error must name; "" = accepted
	}{
		{[]string{"table", "bench", "insts"}, ""},
		{[]string{"table", "remote-workers"}, ""},
		{[]string{"table", "intervals-out"}, "intervals-out"},
		{[]string{"oracle", "intervals-out", "interval", "flush-interval"}, ""},
		{[]string{"adaptive", "intervals-out"}, "intervals-out"},
		{[]string{"oracle", "adaptive", "intervals-out"}, "intervals-out"},
		{[]string{"table", "strategy"}, "strategy"},
		{[]string{"oracle", "strategy"}, "strategy"},
		{[]string{"adaptive", "strategy", "interval", "flush-interval"}, ""},
		{[]string{"table", "flush-interval"}, "flush-interval"},
		{[]string{"figure", "interval"}, "interval"},
		{[]string{"table", "host-trace", "stepmode", "workers", "quiet"}, ""},
	} {
		set := map[string]bool{}
		for _, f := range tc.flags {
			set[f] = true
		}
		err := checkFlags(set)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.flags, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%v: accepted, want -%s rejected", tc.flags, tc.bad)
		case tc.bad != "" && !strings.HasPrefix(err.Error(), "-"+tc.bad+" "):
			t.Errorf("%v: error %q does not name -%s", tc.flags, err, tc.bad)
		}
	}
}
