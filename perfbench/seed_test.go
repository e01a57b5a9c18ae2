package main

import (
	"reflect"
	"testing"
)

// serveSequence is everything the serve workload sends for one seed.
func serveSequence(seed uint64) [][]serveJob {
	cr, jr := serveSeeds(seed)
	return serveJobs(newServeCatalog(cr), jr, 3)
}

func TestServeJobsFollowTheSeed(t *testing.T) {
	a, b := serveSequence(1), serveSequence(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different job sequences")
	}
	if reflect.DeepEqual(a, serveSequence(2)) {
		t.Fatal("seeds 1 and 2 gave the same job sequence")
	}
	for w, jobs := range a {
		if len(jobs) != serveJobsPerWindow {
			t.Fatalf("window %d has %d jobs, want %d", w, len(jobs), serveJobsPerWindow)
		}
		repeats := 0
		for i, j := range jobs {
			if j.repeatOf < 0 {
				continue
			}
			repeats++
			if j.repeatOf >= i || jobs[j.repeatOf].repeatOf >= 0 || j.spec != jobs[j.repeatOf].spec {
				t.Fatalf("window %d job %d repeats job %d badly", w, i, j.repeatOf)
			}
		}
		if repeats != serveRepeats {
			t.Fatalf("window %d has %d repeats, want %d", w, repeats, serveRepeats)
		}
	}
}

func TestReplayAndCampaignStreamsFollowTheSeed(t *testing.T) {
	states := func(seed uint64) []uint64 {
		var out []uint64
		for _, r := range replaySeeds(seed, 3) {
			out = append(out, r.State())
		}
		return append(out, passStreams(seed, 1)(0).State(), passStreams(seed, 1)(2).State())
	}
	if !reflect.DeepEqual(states(5), states(5)) {
		t.Fatal("seed 5 gave two different stream sets")
	}
	a, b := states(5), states(6)
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("stream %d is the same for seeds 5 and 6", i)
		}
	}
	if passStreams(5, 0) != nil {
		t.Fatal("the first campaign pass must keep the paper's streams")
	}
}
