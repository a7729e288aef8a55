package portal

import (
	"syscall"
	"testing"
)

// limitFileSize lowers the process's file size limit (RLIMIT_FSIZE) to n
// bytes, so a write that would grow any file past n stops there and fails
// with EFBIG (the Go runtime ignores SIGXFSZ). restore lifts it again. The
// limit binds every file the process writes, go test's own log of opened
// files included, so only code that opens no file may run until restore.
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
}
