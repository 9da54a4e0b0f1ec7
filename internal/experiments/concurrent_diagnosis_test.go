package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"diads/internal/diag"
)

// TestConcurrentPlanReplayOnSharedInput pins plan-change analysis as
// safe under concurrent diagnoses of one Input. Replaying an index event
// toggles the index; done on the Input's own catalog, a second
// goroutine re-planning meanwhile saw the wrong index state and missed
// the scenario 6 index drop about once in a hundred diagnoses.
func TestConcurrentPlanReplayOnSharedInput(t *testing.T) {
	sc, err := Build(SPlanRegression, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perGoroutine = 2, 500
	var wrong, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				res, err := diag.DiagnoseContext(context.Background(), sc.Input)
				switch {
				case err != nil:
					failed.Add(1)
				case !sc.Correct(res):
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if w, f := wrong.Load(), failed.Load(); w+f > 0 {
		t.Fatalf("%d of %d concurrent diagnoses misdiagnosed scenario 6, %d failed",
			w, goroutines*perGoroutine, f)
	}
}
