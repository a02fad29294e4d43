package sim

import (
	"context"
	"strings"
	"testing"
)

// TestMulticoreSweepRequiresMigration: a sweep in which no global run
// migrates fails, as a never-preempting dispatcher would. The
// one-point sweep from seed base 2 draws a moderate 4-core set that
// never migrates; the one from base 1 draws an overloaded set that
// migrates hundreds of times.
func TestMulticoreSweepRequiresMigration(t *testing.T) {
	pts, err := MulticoreSweep(context.Background(), 2, 1, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "no global run migrated") {
		t.Fatalf("migration-free sweep (%+v) returned %v, want the no-migration failure", pts, err)
	}
	pts, err = MulticoreSweep(context.Background(), 1, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Migrations == 0 {
		t.Fatal("overloaded point never migrated")
	}
}
