//go:build !race

// The race detector makes sync.Pool drop items on purpose, so the pooled
// paths below re-allocate under it; the assertion holds for normal builds.

package sledge_test

import "testing"

// TestInvokeZeroAllocs is the zero-allocation claim of the invoke path as a
// gate rather than a printed figure: once the pools are warm, a request that
// completes in the submitter's slice and one a worker completes allocate
// nothing.
func TestInvokeZeroAllocs(t *testing.T) {
	for _, c := range churnCases {
		t.Run(c.name, func(t *testing.T) {
			rt := newChurnRuntime(t, c.src, c.req)
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := rt.Invoke("fn", c.req); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocs per invoke, want 0", allocs)
			}
		})
	}
}
