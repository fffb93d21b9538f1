package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"hybridcc/internal/codec"
)

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	Name    string
	Size    int64 // file size on disk
	Records int   // valid records decoded
	// GoodBytes is the byte offset just past the last valid frame — the
	// truncation point of torn-tail repair.  A clean segment has
	// GoodBytes == Size, or GoodBytes < Size with Torn false when the rest
	// is a preallocated zero tail (a live Sync segment the writer never
	// sealed).
	GoodBytes int64
	// Torn reports an invalid tail; Reason says what was wrong with it.
	Torn   bool
	Reason string
}

// segmentIndex parses the numeric index out of a segment file name,
// returning 0 for names that do not match the wal-NNNNNNNN.seg shape.
func segmentIndex(name string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// ReadDir scans every segment of a log directory in order and returns the
// valid records plus per-segment diagnostics.  A segment's scan stops at
// the first invalid frame (short header, short payload, CRC mismatch,
// undecodable payload): the segment is marked Torn with the failure
// reason, its valid prefix is kept, and no later record of that segment is
// returned.  An all-zero remainder at a frame boundary is not torn: it is
// the zero-filled tail a Sync log keeps ahead of its live segment's append
// offset, and the scan ends there cleanly.  Records from segments after a
// torn one are still scanned and returned in the diagnostics, but callers
// recovering state must treat a torn non-final segment as corruption, not
// a tail — Open refuses it.  A missing directory reads as an empty log.
func ReadDir(dir string) ([]Record, []SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool { return segmentIndex(names[i]) < segmentIndex(names[j]) })

	var recs []Record
	var segs []SegmentInfo
	for _, name := range names {
		info, segRecs, err := readSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		info.Name = name
		segs = append(segs, info)
		recs = append(recs, segRecs...)
	}
	return recs, segs, nil
}

// FileReads counts the segment and checkpoint files this process has read:
// recovery and inspection read them, a checkpoint reads none.
var FileReads atomic.Int64

// readSegment decodes one segment file up to its first invalid frame.
func readSegment(path string) (SegmentInfo, []Record, error) {
	FileReads.Add(1)
	var info SegmentInfo
	data, err := os.ReadFile(path)
	if err != nil {
		return info, nil, fmt.Errorf("wal: %w", err)
	}
	info.Size = int64(len(data))
	var recs []Record
	off := 0
	for off < len(data) {
		// No valid frame has a zero length word, so an all-zero rest at a
		// frame boundary is the writer's preallocated tail: a clean end.
		// At a valid frame the scan stops within the length word.
		if allZero(data[off:]) {
			break
		}
		payload, size, reason := codec.Next(data[off:], maxPayload)
		if reason != "" {
			info.Torn, info.Reason = true, reason
			break
		}
		r, err := decodePayload(payload)
		if err != nil {
			info.Torn, info.Reason = true, err.Error()
			break
		}
		recs = append(recs, r)
		info.Records++
		off += size
		info.GoodBytes = int64(off)
	}
	return info, recs, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReadAll is ReadDir without the diagnostics, failing if any segment but
// the last is torn (the same policy Open applies before repairing).
func ReadAll(dir string) ([]Record, error) {
	recs, segs, err := ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for i, s := range segs {
		if s.Torn && i != len(segs)-1 {
			return nil, fmt.Errorf("wal: segment %s is corrupt at byte %d but later segments exist", s.Name, s.GoodBytes)
		}
	}
	return recs, nil
}
