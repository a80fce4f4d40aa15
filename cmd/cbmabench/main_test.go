package main

import (
	"strings"
	"testing"
	"time"
)

// TestRejectsNegativeCounts: a negative -packets/-groups/-trials used to
// fall back to the scale default silently; it is now an error, while 0
// still selects the default.
func TestRejectsNegativeCounts(t *testing.T) {
	for _, flag := range []string{"-packets", "-groups", "-trials"} {
		err := run([]string{"-quick", "-exp", "fig5", flag, "-3"}, time.Now)
		if err == nil || !strings.Contains(err.Error(), flag+" must not be negative") {
			t.Errorf("%s -3: got %v, want a negative-count error", flag, err)
		}
	}
}
