package lint_test

import (
	"go/constant"
	"go/types"
	"testing"

	"rexchange/internal/lint"
)

// debugAssertsValue loads rexchange/internal/cluster under the given build
// tags and returns the value of its DebugAsserts constant.
func debugAssertsValue(t *testing.T, tags []string) bool {
	t.Helper()
	pkgs, err := lint.ModuleLoader(t, tags).Load([]string{"./internal/cluster"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	obj := pkgs[0].Types.Scope().Lookup("DebugAsserts")
	c, ok := obj.(*types.Const)
	if !ok {
		t.Fatalf("DebugAsserts = %v, want a constant", obj)
	}
	return constant.BoolVal(c.Val())
}

// TestStdCacheKeyedByBuildTags is the regression test for the shared
// stdlib typecheck cache: loaders running under different build tag sets
// must not share cached facts. Before the cache was keyed by tags, a
// default-tags run poisoned the cache for a subsequent -tags debugasserts
// run (and vice versa), so whichever tag set ran second saw the other's
// file selection.
func TestStdCacheKeyedByBuildTags(t *testing.T) {
	// Order matters for the regression: default first primes the caches,
	// then the tagged run must still see its own file selection.
	if got := debugAssertsValue(t, nil); got {
		t.Fatal("default build: DebugAsserts = true, want false")
	}
	if got := debugAssertsValue(t, []string{"debugasserts"}); !got {
		t.Fatal("-tags debugasserts: DebugAsserts = false, want true")
	}
	// And the default cache was not poisoned by the tagged run either.
	if got := debugAssertsValue(t, nil); got {
		t.Fatal("default build after tagged run: DebugAsserts = true, want false")
	}
}

// TestStdCacheSharedWithinTagSet pins that equal tag sets share one stdlib
// cache regardless of tag order: repeated runs reuse the same typechecked
// std packages (identity, not just equality), which is what keeps whole-
// module rexlint runs inside the wall-time budget.
func TestStdCacheSharedWithinTagSet(t *testing.T) {
	a := lint.ModuleLoader(t, []string{"x", "debugasserts"})
	b := lint.ModuleLoader(t, []string{"debugasserts", "x"})

	pa, err := a.Import("sort")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Import("sort")
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("same tag set (reordered) did not share the stdlib cache")
	}

	c := lint.ModuleLoader(t, nil)
	pc, err := c.Import("sort")
	if err != nil {
		t.Fatal(err)
	}
	if pc == pa {
		t.Error("different tag sets shared one stdlib cache")
	}
}
