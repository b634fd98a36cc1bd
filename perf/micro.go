package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"munin"
	"munin/internal/diffenc"
	"munin/internal/vm"
)

const pageWords = vm.DefaultPageSize / vm.WordSize

// measureAccess times the munin access path — the typed views plus the
// vm access check — on valid local pages: a one-node program whose root
// thread first touches every page for write, so no access in the timed
// loops faults or sends anything.
func measureAccess(rng *rand.Rand, slice time.Duration, out map[string]summary) error {
	const pages = 64
	p := munin.NewProgram(1)
	arr := munin.Declare[uint32](p, "words", pages*pageWords, munin.WriteShared)
	mat := munin.DeclareMatrix[float32](p, "rows", pages, pageWords, munin.WriteShared)
	// A fixed pseudo-random walk over the array, so the loops are not a
	// sequential scan the hardware prefetches.
	index := make([]int, 1<<14)
	for i := range index {
		index[i] = rng.Intn(arr.Len())
	}
	root := func(t *munin.Thread) {
		for pg := 0; pg < pages; pg++ {
			arr.Set(t, pg*pageWords, 1)
			mat.Set(t, pg, 0, 1)
		}
		var acc uint32
		out["munin.get_ns"] = point(1e9 * timeLoop(slice, func() {
			for _, i := range index {
				acc += arr.Get(t, i)
			}
		}) / float64(len(index)))
		out["munin.set_ns"] = point(1e9 * timeLoop(slice, func() {
			for _, i := range index {
				arr.Set(t, i, acc)
			}
		}) / float64(len(index)))
		row := make([]float32, pageWords)
		readRows := func() {
			for r := 0; r < pages; r++ {
				mat.ReadRow(t, r, row)
			}
		}
		out["munin.readrow_ns_per_word"] = point(1e9 * timeLoop(slice, readRows) / (pages * pageWords))
		allocs, _ := allocsOf(readRows)
		out["munin.readrow_allocs"] = point(allocs / pages)
		out["munin.writerow_ns_per_word"] = point(1e9 * timeLoop(slice, func() {
			for r := 0; r < pages; r++ {
				mat.WriteRow(t, r, row)
			}
		}) / (pages * pageWords))
		sink += int(acc)
	}
	if _, err := p.Run(context.Background(), root); err != nil {
		return fmt.Errorf("munin access program: %w", err)
	}
	return nil
}

// measureDiffenc times twin/diff encoding and decoding of one 8 KB page
// in the two shapes the workloads produce: sparse, one 16-word run
// changed (a lockheavy slot), and dense, every word changed (a SOR row).
func measureDiffenc(rng *rand.Rand, slice time.Duration, out map[string]summary) error {
	const pages = 16
	type pair struct{ twin, cur, diff, dst []byte }
	make16 := func(dense bool) []pair {
		ps := make([]pair, pages)
		for i := range ps {
			twin := make([]byte, vm.DefaultPageSize)
			rng.Read(twin)
			cur := append([]byte(nil), twin...)
			lo, hi := 0, pageWords
			if !dense {
				lo = rng.Intn(pageWords - 16)
				hi = lo + 16
			}
			for w := lo; w < hi; w++ {
				cur[w*vm.WordSize] ^= 0xff
			}
			ps[i] = pair{twin: twin, cur: cur, dst: append([]byte(nil), twin...)}
		}
		return ps
	}
	for _, shape := range []struct {
		name  string
		dense bool
	}{{"sparse", false}, {"dense", true}} {
		ps := make16(shape.dense)
		out["diffenc.encode_"+shape.name+"_ns_per_page"] = point(1e9 * timeLoop(slice, func() {
			for i := range ps {
				ps[i].diff, _ = diffenc.Encode(ps[i].twin, ps[i].cur)
			}
		}) / pages)
		var err error
		out["diffenc.decode_"+shape.name+"_ns_per_page"] = point(1e9 * timeLoop(slice, func() {
			for i := range ps {
				if _, e := diffenc.Decode(ps[i].dst, ps[i].diff); e != nil {
					err = e
				}
			}
		}) / pages)
		if err != nil {
			return fmt.Errorf("diffenc decode: %w", err)
		}
		for i := range ps {
			if string(ps[i].dst) != string(ps[i].cur) {
				return fmt.Errorf("diffenc: %s page %d does not round-trip", shape.name, i)
			}
		}
	}
	return nil
}
