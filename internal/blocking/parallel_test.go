package blocking

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

func parallelFixture(nExt, nLoc int) (ext, loc []Record) {
	for i := 0; i < nExt; i++ {
		ext = append(ext, Record{ID: fmt.Sprintf("e%d", i), Key: fmt.Sprintf("CRCW%04d-%dV", i%97, i%13)})
	}
	for i := 0; i < nLoc; i++ {
		loc = append(loc, Record{ID: fmt.Sprintf("l%d", i), Key: fmt.Sprintf("CRCW%04d-%dV", i%89, i%13)})
	}
	return ext, loc
}

// TestBigramParallelDeterminism asserts the fanned-out sub-list
// computation yields the exact candidate set of the serial method at
// every worker count.
func TestBigramParallelDeterminism(t *testing.T) {
	ext, loc := parallelFixture(300, 400)
	want := Bigram{Threshold: 0.8, MaxSublists: 16, Workers: 1}.Pairs(ext, loc)
	if len(want) == 0 {
		t.Fatal("degenerate fixture")
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got := Bigram{Threshold: 0.8, MaxSublists: 16, Workers: workers}.Pairs(ext, loc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Bigram workers=%d: %d pairs, serial %d", workers, len(got), len(want))
		}
	}
}

// TestCanopyParallelDeterminism does the same for the canopy method's
// parallel gram-set phase.
func TestCanopyParallelDeterminism(t *testing.T) {
	ext, loc := parallelFixture(250, 350)
	want := Canopy{Workers: 1}.Pairs(ext, loc)
	if len(want) == 0 {
		t.Fatal("degenerate fixture")
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got := Canopy{Workers: workers}.Pairs(ext, loc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Canopy workers=%d: %d pairs, serial %d", workers, len(got), len(want))
		}
	}
}

// TestSortedNeighborhoodParallelDeterminism asserts the fanned-out key
// derivation yields the exact candidate set of the serial method at
// every worker count.
func TestSortedNeighborhoodParallelDeterminism(t *testing.T) {
	ext, loc := parallelFixture(300, 400)
	want := SortedNeighborhood{Window: 5, Workers: 1}.Pairs(ext, loc)
	if len(want) == 0 {
		t.Fatal("degenerate fixture")
	}
	for _, workers := range []int{0, 2, 3, 7} {
		got := SortedNeighborhood{Window: 5, Workers: workers}.Pairs(ext, loc)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SortedNeighborhood workers=%d: %d pairs, serial %d", workers, len(got), len(want))
		}
	}
}

// TestPairsCtxCancellation asserts the cancellable variants observe a
// dead context instead of discarding it the way Pairs must.
func TestPairsCtxCancellation(t *testing.T) {
	ext, loc := parallelFixture(200, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Bigram{Threshold: 0.8, MaxSublists: 16}).PairsCtx(ctx, ext, loc); err != context.Canceled {
		t.Errorf("Bigram.PairsCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := (Canopy{}).PairsCtx(ctx, ext, loc); err != context.Canceled {
		t.Errorf("Canopy.PairsCtx(cancelled) err = %v, want context.Canceled", err)
	}
	// A live context returns the full pair set.
	got, err := (Bigram{Threshold: 0.8, MaxSublists: 16}).PairsCtx(context.Background(), ext, loc)
	if err != nil {
		t.Fatal(err)
	}
	want := Bigram{Threshold: 0.8, MaxSublists: 16}.Pairs(ext, loc)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PairsCtx(live) returned %d pairs, Pairs %d", len(got), len(want))
	}
}
