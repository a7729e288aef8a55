package portal

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The crash table below runs against both logs built on segLog, driven
// through their public APIs: the record store and the event hub must agree
// on every on-disk rule because they share the code that implements it.

// segLogUser is one of the two logs built on segLog.
type segLogUser struct {
	name    string
	segment func(dir string, n int) string // path of segment n under dir
	open    func(dir string) (*segLogHandle, error)
}

// segLogHandle is an open log: add commits one batch of three items, count
// reports the items committed, bad tries to commit an unencodable batch.
type segLogHandle struct {
	add   func() error
	bad   func() error
	count func() int
	log   *segLog
	close func() error
}

var segLogUsers = []segLogUser{
	{
		name:    "store",
		segment: segmentPath,
		open: func(dir string) (*segLogHandle, error) {
			s, err := OpenStore(dir)
			if err != nil {
				return nil, err
			}
			return &segLogHandle{
				add: func() error { _, err := s.IngestBatch(diskRecords(3)); return err },
				bad: func() error {
					recs := diskRecords(3)
					recs[2].Fields = map[string]any{"score": math.NaN()}
					_, err := s.IngestBatch(recs)
					return err
				},
				count: s.Len,
				log:   s.log.segLog,
				close: s.Close,
			}, nil
		},
	},
	{
		name:    "hub",
		segment: eventSegment,
		open: func(dir string) (*segLogHandle, error) {
			h, err := OpenHub(HubOptions{Dir: dir})
			if err != nil {
				return nil, err
			}
			batch := func() []StreamEvent {
				return []StreamEvent{benchEvent("a", 0), benchEvent("a", 1), benchEvent("a", 2)}
			}
			return &segLogHandle{
				add: func() error { _, err := h.PublishEvents(batch()); return err },
				bad: func() error {
					evs := batch()
					evs[2].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) // no JSON form
					_, err := h.PublishEvents(evs)
					return err
				},
				count: func() int { return int(h.LastSeq()) },
				log:   h.log,
				close: h.Close,
			}, nil
		},
	},
}

// forEachSegLog runs body once per log user, each against a fresh dir.
func forEachSegLog(t *testing.T, body func(t *testing.T, u segLogUser, dir string)) {
	for _, u := range segLogUsers {
		t.Run(u.name, func(t *testing.T) { body(t, u, t.TempDir()) })
	}
}

func (u segLogUser) mustOpen(t *testing.T, dir string) *segLogHandle {
	t.Helper()
	l, err := u.open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", u.name, err)
	}
	t.Cleanup(func() { _ = l.close() }) // a second close only reports the first
	return l
}

// seed commits batches batches to a fresh log under dir and closes it.
func (u segLogUser) seed(t *testing.T, dir string, batches int) {
	t.Helper()
	l := u.mustOpen(t, dir)
	for i := 0; i < batches; i++ {
		if err := l.add(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// rewrite replaces a segment's bytes with edit's result.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lastLineStart is the offset of the final line of a '\n'-terminated log.
func lastLineStart(data []byte) int {
	return strings.LastIndexByte(string(data[:len(data)-1]), '\n') + 1
}

// reopenExpect reopens dir, checks it holds want items, commits one more
// batch, and checks a further reopen holds want+3: the log accepts appends
// again at a clean line boundary.
func (u segLogUser) reopenExpect(t *testing.T, dir string, want int) {
	t.Helper()
	l := u.mustOpen(t, dir)
	if got := l.count(); got != want {
		t.Fatalf("reopened %s holds %d items, want %d", u.name, got, want)
	}
	if err := l.add(); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	again := u.mustOpen(t, dir)
	if got := again.count(); got != want+3 {
		t.Fatalf("second reopen holds %d items, want %d", got, want+3)
	}
}

// TestSegLogTornLineDropped: a final line cut mid-way is a batch that never
// committed. It drops whole and the log takes appends again.
func TestSegLogTornLineDropped(t *testing.T) {
	forEachSegLog(t, func(t *testing.T, u segLogUser, dir string) {
		u.seed(t, dir, 3)
		rewrite(t, u.segment(dir, 1), func(data []byte) []byte {
			start := lastLineStart(data)
			return data[:start+(len(data)-start)/2]
		})
		u.reopenExpect(t, dir, 6)
	})
}

// TestSegLogMissingFinalNewline: the final batch's JSON landed whole but its
// '\n' did not. The batch is kept, and the boundary is repaired so the next
// append starts a fresh line.
func TestSegLogMissingFinalNewline(t *testing.T) {
	forEachSegLog(t, func(t *testing.T, u segLogUser, dir string) {
		u.seed(t, dir, 3)
		rewrite(t, u.segment(dir, 1), func(data []byte) []byte { return data[:len(data)-1] })
		u.reopenExpect(t, dir, 9)
	})
}

// TestSegLogCorruptionIsLoud: damage to a committed line, or a missing
// segment, is never mistaken for a torn append; opening the log fails.
func TestSegLogCorruptionIsLoud(t *testing.T) {
	damage := []struct {
		name string
		seal bool // one batch per segment, so there are segments to lose
		edit func(t *testing.T, u segLogUser, dir string)
	}{
		{"terminated final line", false, func(t *testing.T, u segLogUser, dir string) {
			rewrite(t, u.segment(dir, 1), func(data []byte) []byte {
				copy(data[lastLineStart(data)+1:], "!!!!")
				return data
			})
		}},
		{"mid-log line", false, func(t *testing.T, u segLogUser, dir string) {
			rewrite(t, u.segment(dir, 1), func(data []byte) []byte {
				lines := strings.SplitAfter(string(data), "\n")
				lines[1] = "{\"broken\": \n"
				return []byte(strings.Join(lines, ""))
			})
		}},
		{"segment gap", true, func(t *testing.T, u segLogUser, dir string) {
			if err := os.Remove(u.segment(dir, 2)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			forEachSegLog(t, func(t *testing.T, u segLogUser, dir string) {
				if d.seal {
					smallSegments(t, 1)
				}
				u.seed(t, dir, 3)
				d.edit(t, u, dir)
				l, err := u.open(dir)
				if err == nil {
					l.close()
					t.Fatalf("%s opened over %s", u.name, d.name)
				}
				if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "gap") {
					t.Fatalf("%s: open error %v names neither corruption nor a gap", d.name, err)
				}
			})
		})
	}
}

// TestSegLogFailedAppendRollsBack: a batch that fails to encode, and one
// whose write fails partway, both leave the segment at its committed
// length; the log stays usable and a reopen sees only committed batches.
func TestSegLogFailedAppendRollsBack(t *testing.T) {
	forEachSegLog(t, func(t *testing.T, u segLogUser, dir string) {
		l := u.mustOpen(t, dir)
		if err := l.add(); err != nil {
			t.Fatal(err)
		}
		committed := l.log.size
		if err := l.bad(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("unencodable batch = %v, want ErrInvalid", err)
		}
		// The next write stops 16 bytes in. The line goes straight to the
		// shared log: nothing that opens a file may run under the limit.
		restore := limitFileSize(t, committed+16)
		err := l.log.append(map[string]string{"pad": strings.Repeat("x", 64)})
		restore()
		if err == nil {
			t.Fatal("append past the file size limit succeeded")
		}
		st, err := os.Stat(u.segment(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != committed {
			t.Fatalf("segment holds %d bytes after failed appends, want the %d committed", st.Size(), committed)
		}
		if err := l.add(); err != nil {
			t.Fatalf("append after rollback: %v", err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		u.reopenExpect(t, dir, 6)
	})
}

// TestSegLogFailedRollbackPoisons: when a failed append cannot be rolled
// back (the segment's file handle is dead), every later append is refused,
// and the dir still reopens with exactly the committed batches.
func TestSegLogFailedRollbackPoisons(t *testing.T) {
	forEachSegLog(t, func(t *testing.T, u segLogUser, dir string) {
		l := u.mustOpen(t, dir)
		if err := l.add(); err != nil {
			t.Fatal(err)
		}
		_ = l.log.f.Close() // sabotage: the write and the rollback both fail
		if err := l.add(); err == nil {
			t.Fatal("append through a dead segment file succeeded")
		}
		if err := l.add(); err == nil || !strings.Contains(err.Error(), "earlier failure") {
			t.Fatalf("poisoned log accepted a batch: %v", err)
		}
		_ = l.close() // reports the dead file; still releases the lock
		u.reopenExpect(t, dir, 3)
	})
}
