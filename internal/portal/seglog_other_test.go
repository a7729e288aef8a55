//go:build !linux

package portal

import "testing"

// limitFileSize needs RLIMIT_FSIZE; elsewhere the partial-write case is
// skipped.
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Skip("partial-write injection needs RLIMIT_FSIZE (linux)")
	return nil
}
