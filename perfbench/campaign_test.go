package main

import (
	"reflect"
	"testing"

	"edm/internal/experiment"
)

// The cell runner must reproduce the paper figures it times.
func TestCellRunnerReproducesFig9AndFig11(t *testing.T) {
	s := experiment.Quick()
	s.Rounds, s.Trials = 2, 256
	for _, fig := range []struct {
		f    figure
		want func(experiment.Setup) []experiment.PolicyRow
	}{{fig9, experiment.Fig9}, {fig11, experiment.Fig11}} {
		d := &cellRunner{s: s}
		got, err := d.run(fig.f)
		if err != nil || d.failed != 0 {
			t.Fatalf("%s: %v (%d cells failed)", fig.f.name, err, d.failed)
		}
		if want := fig.want(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows differ\n got %+v\nwant %+v", fig.f.name, got, want)
		}
		if len(d.digests) != len(got)*s.Rounds {
			t.Errorf("%s: %d cell digests, want %d", fig.f.name, len(d.digests), len(got)*s.Rounds)
		}
	}
}
