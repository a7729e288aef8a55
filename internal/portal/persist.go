package portal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On-disk layout under the data directory:
//
//	<dir>/segments/snap-000005.snap   compacted snapshot of segments 1..5:
//	                                  the covered records in original ingest
//	                                  order, in the binary format described
//	                                  in snapcodec.go
//	<dir>/segments/seg-000006.jsonl   append-only record log (seglog.go),
//	                                  one committed batch per line,
//	                                  rotated by size
//	<dir>/blobs/b-00000042.bin        attachment bodies, one file each,
//	                                  referenced by name from segment lines
//
// A batch becomes durable when its segment line is written and fsynced;
// its blobs are written (and synced) first, so a line never references a
// missing blob. On OpenStore the snapshot (if any) and the tail segments
// are replayed oldest-first — decoded on a worker pool in chunks, merged in
// ingest order — so restart time is bounded by cores, not archive age. A
// torn final line (the process died mid-append) is truncated away, so a
// batch is restored whole or not at all, and everything before it is
// restored, indexes and summary cache included.
// Compaction (see compact.go) replaces sealed segments with a fresh
// snapshot via write-new-then-atomic-rename; leftovers of a compaction
// interrupted by a crash (a stale .tmp, segments already covered by the
// newest snapshot, an older snapshot) are swept on the next open.

const (
	segmentDirName = "segments"
	blobDirName    = "blobs"
)

// Options tunes OpenStoreWith. The zero value matches OpenStore: replay on
// all cores, no automatic compaction.
type Options struct {
	// ReplayWorkers caps the decode worker pool during replay; 0 uses
	// GOMAXPROCS, 1 forces sequential replay (the pre-compaction baseline
	// cmd/portalload measures against).
	ReplayWorkers int
	// AutoCompactSegments, when positive, starts a background compaction
	// whenever more than this many sealed segments have accumulated past
	// the newest snapshot. 0 disables automatic compaction; Store.Compact
	// can still be called explicitly.
	AutoCompactSegments int
	// SegmentBytes overrides the segment rotation threshold (how large the
	// active segment may grow before it is sealed). 0 keeps the default
	// 4 MiB. Smaller segments seal sooner, giving compaction something to
	// fold on small archives — cmd/portalload uses this.
	SegmentBytes int64
}

// segRecord is the persisted form of one record: Fields inline, attachment
// bodies replaced by blob references. Batch carries the idempotency key of
// the batch that committed the record, so dedupe survives a restart: a
// segment line holds the key once for all its records (parseRecordLine
// copies it in), a snapshot stores it per record.
type segRecord struct {
	ID         string             `json:"id"`
	Experiment string             `json:"experiment"`
	Run        int                `json:"run,omitempty"`
	Time       time.Time          `json:"time"`
	Fields     map[string]any     `json:"fields,omitempty"`
	Blobs      map[string]blobRef `json:"blobs,omitempty"`
	Batch      string             `json:"batch,omitempty"`
}

// snapHeader is a compacted snapshot segment's header: the record count
// (replay preallocates from it) and the ID/blob sequence watermarks (replay
// skips the per-record watermark scan for covered records). Serialized in
// the binary layout described in snapcodec.go.
type snapHeader struct {
	Snap  bool
	Count int
	Seq   int
	Blob  int
}

// blobRef locates one attachment's body in the blob directory.
type blobRef struct {
	File string `json:"file"`
	Size int    `json:"size"`
}

// segmentLog is the record store's persistence: the shared segment log
// plus the blob directory and the compaction watermark.
type segmentLog struct {
	*segLog
	root string // data dir root
	blob int    // last blob number issued
	// compacted is the highest segment number covered by the newest
	// snapshot segment; sealed segments above it are compaction candidates.
	compacted int
}

// segBatch is one store segment line: a committed batch's records and the
// idempotency key it committed under.
type segBatch struct {
	Key     string      `json:"key,omitempty"`
	Records []segRecord `json:"records"`
}

// parseRecordLine flattens one store segment line into its records, each
// carrying the line's key as Batch, so everything downstream of replay sees
// per-record segRecords.
func parseRecordLine(line []byte, out []segRecord) ([]segRecord, bool) {
	var b segBatch
	if json.Unmarshal(line, &b) != nil || len(b.Records) == 0 {
		return out, false
	}
	for i := range b.Records {
		if b.Records[i].Experiment == "" {
			return out, false
		}
		b.Records[i].Batch = b.Key
	}
	return append(out, b.Records...), true
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, segmentDirName, fmt.Sprintf("seg-%06d.jsonl", seq))
}

func snapPath(dir string, seq int) string {
	return filepath.Join(dir, segmentDirName, fmt.Sprintf("snap-%06d.snap", seq))
}

// maxReplayWorkers is the default decode pool size for replay.
func maxReplayWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// numberedFile extracts the sequence number from a prefix-NNNNNN-suffix
// file name, replacing the fmt.Sscanf replay hot path (reflection-heavy at
// one call per record) with a plain integer parse.
func numberedFile(base, prefix, suffix string) (int, bool) {
	mid, ok := strings.CutPrefix(base, prefix)
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, suffix); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// recSeq parses a generated "rec-NNNNNN" ID for the auto-ID watermark.
func recSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "rec-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// OpenStore opens (creating if needed) a durable store rooted at dir,
// replaying its segment log into fresh in-memory indexes. A torn final
// record left by a crash mid-append is dropped and truncated away; any
// other corruption is reported as an error rather than silently skipped.
// The caller owns the returned store and should Close it to flush the log.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, Options{})
}

// OpenStoreWith is OpenStore with replay and compaction tuning.
func OpenStoreWith(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, fmt.Errorf("portal: open store: %w", err)
	}
	maxBytes := opts.SegmentBytes
	if maxBytes <= 0 {
		maxBytes = maxSegmentBytes
	}
	segDir := filepath.Join(dir, segmentDirName)
	snapN := 0
	sweep := func() (int, error) {
		var err error
		snapN, err = sweepSegmentDir(segDir)
		return snapN, err
	}
	lg, segs, err := openSegLog(dir, segDir, "seg-", maxBytes, opts.ReplayWorkers, sweep, parseRecordLine)
	if err != nil {
		return nil, err
	}
	s, watermarks, err := replayArchive(dir, snapN, segs, opts.ReplayWorkers)
	if err != nil {
		_ = lg.close() // already failing; nothing was appended
		return nil, err
	}
	log := &segmentLog{segLog: lg, root: dir, blob: watermarks.blob, compacted: snapN}
	s.seq = watermarks.seq
	s.log = log
	s.readLog.Store(log)
	s.autoCompact = opts.AutoCompactSegments
	return s, nil
}

// sweepSegmentDir sweeps leftovers of an interrupted compaction and returns
// the newest snapshot number (0 if none); the segments after it are the
// tail to replay. Removed: stale *.tmp stages, older snapshots superseded
// by the newest one, and segments the newest snapshot already covers (a
// crash between rename and cleanup leaves both; replaying both would abort
// on duplicate IDs).
func sweepSegmentDir(segDir string) (snapN int, err error) {
	names, err := filepath.Glob(filepath.Join(segDir, "*"))
	if err != nil {
		return 0, fmt.Errorf("portal: open store: %w", err)
	}
	for _, name := range names {
		if n, ok := numberedFile(filepath.Base(name), "snap-", ".snap"); ok && n > snapN {
			snapN = n
		}
	}
	removed := false
	for _, name := range names {
		base := filepath.Base(name)
		drop := strings.HasSuffix(base, ".tmp")
		if n, ok := numberedFile(base, "snap-", ".snap"); ok && n < snapN {
			drop = true
		}
		if n, ok := numberedFile(base, "seg-", ".jsonl"); ok && n <= snapN {
			drop = true
		}
		if drop {
			if err := os.Remove(name); err != nil {
				return 0, fmt.Errorf("portal: sweep %s: %w", base, err)
			}
			removed = true
		}
	}
	if removed {
		if err := syncDir(segDir); err != nil {
			return 0, fmt.Errorf("portal: sweep segment dir: %w", err)
		}
	}
	return snapN, nil
}

// replayWatermarks carries the sequence counters recovered during replay.
type replayWatermarks struct {
	seq  int
	blob int
}

// replayArchive decodes the snapshot (binary, chunk-parallel) and the tail
// segments (JSONL, chunk-parallel) and builds a store with bulk-constructed
// indexes: one (time, slot) sort over all records instead of a per-record
// sorted insert, with per-experiment indexes derived from the global order
// in one pass. Snapshot records skip the per-record watermark scan — their
// header carries the covered watermarks.
func replayArchive(dir string, snapN int, segs [][]segRecord, workers int) (*Store, replayWatermarks, error) {
	s := NewStore()
	var marks replayWatermarks
	var snapRecs []segRecord
	if snapN > 0 {
		data, err := os.ReadFile(snapPath(dir, snapN))
		if err != nil {
			return nil, marks, fmt.Errorf("portal: replay snapshot: %w", err)
		}
		head, recs, err := snapDecode(data, workers)
		if err != nil {
			// A snapshot is published whole by an atomic rename; damage here
			// is corruption, never a torn write.
			return nil, marks, fmt.Errorf("portal: corrupt snapshot %s: %v",
				filepath.Base(snapPath(dir, snapN)), err)
		}
		marks.seq, marks.blob = head.Seq, head.Blob
		snapRecs = recs
	}
	total := len(snapRecs)
	for _, recs := range segs {
		total += len(recs)
	}
	entries := make([]entry, 0, total)
	ids := make(map[string]int, total)
	var lastBatch string
	var run []string
	addRec := func(sr *segRecord, file string, scanMarks bool) error {
		if _, dup := ids[sr.ID]; dup {
			return fmt.Errorf("portal: duplicate record id %q in %s", sr.ID, file)
		}
		slot := len(entries)
		ids[sr.ID] = slot
		rec := Record{ID: sr.ID, Experiment: sr.Experiment, Run: sr.Run, Time: sr.Time, Fields: sr.Fields}
		if len(sr.Blobs) > 0 {
			rec.sizes = make(map[string]int, len(sr.Blobs))
			for bname, ref := range sr.Blobs {
				rec.sizes[bname] = ref.Size
				if scanMarks {
					if n, ok := numberedFile(ref.File, "b-", ".bin"); ok && n > marks.blob {
						marks.blob = n
					}
				}
			}
		}
		if scanMarks {
			if n, ok := recSeq(sr.ID); ok && n > marks.seq {
				marks.seq = n
			}
		}
		entries = append(entries, entry{rec: rec, blobs: sr.Blobs})
		// Rebuild the idempotency-key memory from contiguous key runs (the
		// latest run of a key wins, matching the in-memory FIFO).
		if sr.Batch != "" {
			if sr.Batch != lastBatch {
				run = nil
			}
			run = append(run, sr.ID)
			s.batches.put(sr.Batch, run)
		}
		lastBatch = sr.Batch
		return nil
	}
	snapBase := ""
	if snapN > 0 {
		snapBase = filepath.Base(snapPath(dir, snapN))
	}
	for ri := range snapRecs {
		if err := addRec(&snapRecs[ri], snapBase, false); err != nil {
			return nil, marks, err
		}
	}
	for si, recs := range segs {
		file := filepath.Base(segmentPath(dir, snapN+1+si))
		for ri := range recs {
			if err := addRec(&recs[ri], file, true); err != nil {
				return nil, marks, err
			}
		}
	}
	sn := &snapshot{entries: entries}
	byTime := make([]int, len(entries))
	for i := range byTime {
		byTime[i] = i
	}
	// Records usually arrive in time order; skip the sort when they did.
	if !sort.SliceIsSorted(byTime, func(i, j int) bool { return sn.less(byTime[i], byTime[j]) }) {
		sort.Slice(byTime, func(i, j int) bool { return sn.less(byTime[i], byTime[j]) })
	}
	sn.byTime = byTime
	sn.byExp = make(map[string][]int)
	for _, slot := range byTime {
		exp := entries[slot].rec.Experiment
		sn.byExp[exp] = append(sn.byExp[exp], slot)
	}
	for id, slot := range ids {
		s.byID.Store(id, slot)
	}
	s.snap.Store(sn)
	return s, marks, nil
}

// writeBlobs persists one record's attachments, returning their references.
// Callers hold the store lock, which serializes blob numbering.
func (l *segmentLog) writeBlobs(files map[string][]byte) (map[string]blobRef, error) {
	if len(files) == 0 {
		return nil, nil
	}
	refs := make(map[string]blobRef, len(files))
	// Deterministic blob numbering for a record's attachments.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l.blob++
		file := fmt.Sprintf("b-%08d.bin", l.blob)
		if err := writeFileSync(filepath.Join(l.root, blobDirName, file), files[name]); err != nil {
			return nil, fmt.Errorf("portal: write blob: %w", err)
		}
		refs[name] = blobRef{File: file, Size: len(files[name])}
	}
	return refs, nil
}

// syncBlobDir makes newly written blobs' directory entries durable; called
// once per ingest batch rather than once per record.
func (l *segmentLog) syncBlobDir() error {
	if err := syncDir(filepath.Join(l.root, blobDirName)); err != nil {
		return fmt.Errorf("portal: sync blob dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so freshly created files' entries survive a
// power loss. Without it a blob (or rotated segment) could lose its name
// while the already-synced segment line referencing it survives.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync is os.WriteFile plus an fsync: blob bodies must reach disk
// before the segment line referencing them does, or a power loss could
// leave a durable record pointing at lost attachment bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readBlobs loads a record's attachment bodies.
func (l *segmentLog) readBlobs(refs map[string]blobRef) (map[string][]byte, error) {
	files := make(map[string][]byte, len(refs))
	for name, ref := range refs {
		data, err := os.ReadFile(filepath.Join(l.root, blobDirName, ref.File))
		if err != nil {
			return nil, fmt.Errorf("load attachment %q: %w", name, err)
		}
		files[name] = data
	}
	return files, nil
}

// appendRecords commits a batch's records as one segment line under the
// batch's idempotency key. Their blobs and blob names are already synced
// (writeBlobs, syncBlobDir), so the line's fsync commits the whole chain.
// Callers hold the store lock.
func (l *segmentLog) appendRecords(recs []Record, blobs []map[string]blobRef, key string) error {
	srs := make([]segRecord, len(recs))
	for i, rec := range recs {
		srs[i] = segRecord{ID: rec.ID, Experiment: rec.Experiment, Run: rec.Run, Time: rec.Time,
			Fields: rec.Fields, Blobs: blobs[i]}
	}
	return l.append(segBatch{Key: key, Records: srs})
}
