package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// segLog is the append-only JSONL segment log under both the record store
// (segments/seg-NNNNNN.jsonl) and the event hub (events/ev-NNNNNN.jsonl).
// It is the only code that writes, fsyncs, truncates or rotates a segment.
//
// One line is one committed batch, {"key":…,"records"|"events":[…]}. The
// line and its '\n' go out in one write and the fsync after it is the
// commit point, so a crash leaves either the whole batch or an unterminated
// final line that does not parse — a torn append, truncated on the next
// open. Every other bad line was committed and then damaged: replay refuses
// it as corruption rather than drop acknowledged data.
type segLog struct {
	dir      string // segment directory
	prefix   string // segment file name prefix: "seg-" or "ev-"
	f        *os.File
	size     int64 // committed bytes: the active segment's length after the last commit
	seq      int   // active segment number (1-based)
	maxBytes int64 // seal the active segment once it grows to this size
	// fault poisons the log: set when a failed append could not be rolled
	// back (or a rotation failed), leaving the on-disk state untrustworthy
	// for further writes. Every later append is refused, which keeps the
	// committed prefix replayable instead of corrupting it.
	fault error
	// unlock releases the single-writer lock on close.
	unlock func()
}

// maxSegmentBytes rotates the log so no single replay parse or truncation
// repair has to handle an unbounded file. A variable so rotation tests can
// shrink it.
var maxSegmentBytes int64 = 4 << 20

// replayChunkBytes is the decode unit for parallel replay: files are split
// at line boundaries into chunks of roughly this size, so even a single
// large segment decodes across every core. A variable for tests.
var replayChunkBytes = 512 << 10

// lineParser decodes one segment line, appending what it holds to out; ok
// is false when the line is not a well-formed batch.
type lineParser[R any] func(line []byte, out []R) (_ []R, ok bool)

func (l *segLog) path(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d.jsonl", l.prefix, n))
}

// openSegLog opens the log of <dir>/<prefix>NNNNNN.jsonl segments for
// append. Under lockDir's single-writer lock it runs sweep (nil for none),
// which may tidy dir and returns the last segment number already folded
// into a snapshot (0 if none); the remaining segments must number on from
// there without a gap. Their lines are decoded through parse on up to
// workers cores (0 = all), one slice per segment, and a torn tail is
// truncated away. The newest segment (or a fresh one) becomes the active
// segment. Close releases the lock.
func openSegLog[R any](lockDir, dir, prefix string, maxBytes int64, workers int,
	sweep func() (int, error), parse lineParser[R]) (_ *segLog, _ [][]R, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("portal: open segment log: %w", err)
	}
	unlock, err := lockDataDir(lockDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			unlock()
		}
	}()
	base := 0
	if sweep != nil {
		if base, err = sweep(); err != nil {
			return nil, nil, err
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*.jsonl"))
	if err != nil {
		return nil, nil, fmt.Errorf("portal: open segment log: %w", err)
	}
	var segs []int
	for _, name := range names {
		if n, ok := numberedFile(filepath.Base(name), prefix, ".jsonl"); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	l := &segLog{dir: dir, prefix: prefix, maxBytes: maxBytes, unlock: unlock}
	paths := make([]string, len(segs))
	for i, n := range segs {
		if n != base+1+i {
			return nil, nil, fmt.Errorf("portal: segment log gap: missing %s", filepath.Base(l.path(base+1+i)))
		}
		paths[i] = l.path(n)
	}
	decs, err := decodeSegmentFiles(paths, workers, true, parse)
	if err != nil {
		return nil, nil, err
	}
	if err := l.openSegment(max(base+len(segs), base+1)); err != nil {
		return nil, nil, err
	}
	return l, decs, nil
}

// openSegment makes segment n the active one, creating it if needed. The
// directory is synced so a fresh segment's name is durable before any batch
// is acknowledged out of it. A crash can tear exactly at the line/newline
// boundary — the final batch's JSON is complete (replay kept it) but its
// '\n' never landed — so the boundary is repaired here, or the next append
// would run onto that line and a later replay would reject both batches.
func (l *segLog) openSegment(n int) error {
	f, err := os.OpenFile(l.path(n), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("portal: open segment: %w", err)
	}
	size, err := endLine(f)
	if err == nil {
		err = syncDir(l.dir)
	}
	if err != nil {
		_ = f.Close() // already failing; nothing was committed through f
		return fmt.Errorf("portal: open segment: %w", err)
	}
	l.f, l.seq, l.size = f, n, size
	return nil
}

// endLine makes a non-empty f end in '\n' and returns its size.
func endLine(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	tail := make([]byte, 1)
	if _, err := f.ReadAt(tail, st.Size()-1); err != nil || tail[0] == '\n' {
		return st.Size(), err
	}
	_, err = f.Write([]byte("\n"))
	return st.Size() + 1, err
}

// usable reports whether the log can accept appends, surfacing the poison
// fault set by an unrecoverable earlier failure.
func (l *segLog) usable() error {
	if l.fault != nil {
		return fmt.Errorf("portal: segment log unusable after earlier failure: %w", l.fault)
	}
	return nil
}

// append commits batch as one line. An unencodable batch (a NaN field, say)
// is the submitter's ErrInvalid and leaves the log untouched. A failed
// write or fsync truncates the segment back to its committed length, so no
// phantom line can ride along with a later batch; if that rollback fails
// too the log is poisoned. A segment that has reached maxBytes is sealed
// after the commit; a failed rotation poisons the log for later appends
// but the batch itself has committed. Callers serialize appends.
func (l *segLog) append(batch any) error {
	if err := l.usable(); err != nil {
		return err
	}
	line, err := json.Marshal(batch)
	if err != nil {
		return fmt.Errorf("%w: encode batch: %v", ErrInvalid, err)
	}
	line = append(line, '\n')
	_, err = l.f.Write(line)
	if err == nil {
		// The fsync is the commit point: a batch acknowledged to the caller
		// must survive power loss, not just process death.
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.fault = fmt.Errorf("roll back segment to %d bytes: %v (after append failure: %v)", l.size, terr, err)
			return fmt.Errorf("portal: %w", l.fault)
		}
		return fmt.Errorf("portal: append batch: %w", err)
	}
	l.size += int64(len(line))
	if l.size >= l.maxBytes {
		if err := l.rotate(); err != nil {
			l.fault = err
		}
	}
	return nil
}

// rotate seals the active segment and starts the next one.
func (l *segLog) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("portal: close segment: %w", err)
	}
	return l.openSegment(l.seq + 1)
}

// close closes the active segment and releases the writer lock. Every
// commit was already fsynced, so there is nothing to flush.
func (l *segLog) close() error {
	defer l.unlock()
	return l.f.Close()
}

// decoded is the decode of a line-aligned byte range: its items up to the
// first bad line, and where that line sits — enough for the torn-tail rule.
// Chunks end on a '\n' except at the end of a file, so an unterminated bad
// line is always its file's final line.
type decoded[R any] struct {
	items         []R
	bad           bool
	badOff        int64
	badTerminated bool // the bad line ended in '\n'
}

// decodeSegmentFiles reads and decodes the given segments on a worker pool.
// Files are split into chunks at line boundaries, so one big segment still
// decodes across all workers; results come back per file in line order,
// exactly as a sequential decode would produce them. With repair set (a
// replay, whose last file is the active segment) an unterminated final
// line of the last file that does not parse is a torn append and is
// truncated away. Any other bad line is corruption and fails the decode.
func decodeSegmentFiles[R any](paths []string, workers int, repair bool, parse lineParser[R]) ([][]R, error) {
	type chunk struct {
		file int
		base int64
		data []byte
	}
	var chunks []chunk
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("portal: replay %s: %w", filepath.Base(path), err)
		}
		for base := 0; base < len(data); {
			end := base + replayChunkBytes
			if end >= len(data) {
				end = len(data)
			} else if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += nl + 1
			} else {
				end = len(data)
			}
			chunks = append(chunks, chunk{file: i, base: int64(base), data: data[base:end]})
			base = end
		}
	}
	if workers <= 0 {
		workers = maxReplayWorkers()
	}
	workers = min(workers, len(chunks))
	results := make([]decoded[R], len(chunks))
	if workers <= 1 {
		for i, c := range chunks {
			results[i] = decodeLines(c.data, c.base, parse)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i] = decodeLines(chunks[i].data, chunks[i].base, parse)
				}
			}()
		}
		for i := range chunks {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	files := make([]decoded[R], len(paths))
	for i, c := range chunks {
		fd, res := &files[c.file], &results[i]
		if fd.bad {
			continue // everything past the first bad line is unreachable
		}
		fd.items = append(fd.items, res.items...)
		fd.bad, fd.badOff, fd.badTerminated = res.bad, res.badOff, res.badTerminated
	}
	out := make([][]R, len(paths))
	for i := range files {
		fd := &files[i]
		out[i] = fd.items
		if !fd.bad {
			continue
		}
		name := filepath.Base(paths[i])
		if !repair || i != len(paths)-1 || fd.badTerminated {
			return nil, fmt.Errorf("portal: corrupt line in %s at offset %d", name, fd.badOff)
		}
		if err := os.Truncate(paths[i], fd.badOff); err != nil {
			return nil, fmt.Errorf("portal: truncate torn tail of %s: %w", name, err)
		}
	}
	return out, nil
}

// decodeLines parses the lines of data (which starts at file offset off),
// stopping at the first line parse rejects.
func decodeLines[R any](data []byte, off int64, parse lineParser[R]) decoded[R] {
	var res decoded[R]
	for len(data) > 0 {
		line, rest, terminated := bytes.Cut(data, []byte{'\n'})
		var ok bool
		if res.items, ok = parse(line, res.items); !ok {
			res.bad, res.badOff, res.badTerminated = true, off, terminated
			return res
		}
		off += int64(len(data) - len(rest))
		data = rest
	}
	return res
}

// keyMemory is an idempotency memory: committed batch key -> the answer
// its commit returned, so a retry under the key is answered, not re-run.
// It keeps the newest maxBatchKeys keys and forgets the oldest first.
type keyMemory[V any] struct {
	m     map[string]V
	order []string
}

func (k *keyMemory[V]) get(key string) (V, bool) {
	v, ok := k.m[key]
	return v, ok
}

// put records key's answer; a key already held keeps its place in line.
func (k *keyMemory[V]) put(key string, v V) {
	if k.m == nil {
		k.m = make(map[string]V)
	}
	if _, ok := k.m[key]; !ok {
		k.order = append(k.order, key)
	}
	k.m[key] = v
	for len(k.order) > maxBatchKeys {
		delete(k.m, k.order[0])
		k.order = k.order[1:]
	}
}
