package apps

import "testing"

func TestTSPReferenceStable(t *testing.T) {
	// The deterministic instance's optimum; pins the distance matrix and
	// the search against accidental change.
	if got := TSPReference(10); got != 202 {
		t.Errorf("10-city optimum = %d, want 202", got)
	}
	if got := TSPReference(8); got <= 0 {
		t.Errorf("8-city optimum = %d", got)
	}
}

func TestMuninTSPMatchesReference(t *testing.T) {
	for _, cities := range []int{8, 10} {
		ref := TSPReference(cities)
		for _, procs := range []int{1, 3, 8} {
			r, err := runNew(NewTSP, TSPConfig{Procs: procs, Cities: cities})
			if err != nil {
				t.Fatalf("c=%d p=%d: %v", cities, procs, err)
			}
			if int64(int32(r.Check)) != ref {
				t.Errorf("c=%d p=%d: found %d, want %d", cities, procs, int32(r.Check), ref)
			}
		}
	}
}

func TestMuninTSPScales(t *testing.T) {
	slow, err := runNew(NewTSP, TSPConfig{Procs: 1, Cities: 10})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runNew(NewTSP, TSPConfig{Procs: 8, Cities: 10})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Elapsed*2 > slow.Elapsed {
		t.Errorf("8 procs (%v) not at least 2x faster than 1 (%v)", fast.Elapsed, slow.Elapsed)
	}
}

func TestMuninTSPBadConfigRejected(t *testing.T) {
	if _, err := runNew(NewTSP, TSPConfig{Procs: 0, Cities: 10}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := runNew(NewTSP, TSPConfig{Procs: 2, Cities: 20}); err == nil {
		t.Error("oversized instance accepted")
	}
}
