package netproto

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hybridcc/internal/codec"
)

// A Catalog makes a shard's object registrations durable.  The WAL records
// operations by object name only; the mapping from names to types and
// schemes arrives over the wire at registration time and would be lost in
// a crash — leaving the recovered WAL records unclaimed and the shard
// unable to replay them.  The catalog persists each (name, type, scheme)
// triple, fsynced BEFORE the registration is acknowledged to the client,
// so that any object a client may have logged operations against is
// re-registerable from local state alone.
//
// Registrations arrive in batches: the registrations a dialed client makes
// inside Dial's setup reach each shard as one message, which costs one
// write and one fsync here (AppendBatch) before the batch is acknowledged;
// a registration outside setup is a batch of one.  A batch the shard
// refuses fails Dial.
//
// The file is append-only with the same CRC framing as the wire and the
// WAL (internal/codec), one frame per entry; a torn final frame (crash
// mid-append) is ignored on load.  A scheme switch — SetScheme over the
// wire, or a re-registration under another scheme — appends a new record
// for the same name; the loader keeps the last record per name.
type Catalog struct {
	mu sync.Mutex
	f  *os.File
	// err is the first failed write or sync.  It refuses every later
	// batch: frames written after a torn one would be lost on reload,
	// since the loader stops at the first bad frame.
	err error
}

// CatalogEntry is one durable registration.
type CatalogEntry struct {
	Name     string
	TypeName string
	Scheme   string
}

// catalogFile is the file name inside the shard directory.
const catalogFile = "catalog"

// OpenCatalog opens (creating if absent) the catalog in dir and returns
// the surviving entries, deduplicated by name with the last scheme kept,
// in first-registration order.
func OpenCatalog(dir string) (*Catalog, []CatalogEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, catalogFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	entries, valid := readCatalog(data)
	// Drop a torn tail so the next append starts at a frame boundary.
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// Last record wins per name; preserve first-seen order for replay
	// determinism.
	latest := make(map[string]int)
	var out []CatalogEntry
	for _, e := range entries {
		if i, ok := latest[e.Name]; ok {
			out[i] = e
			continue
		}
		latest[e.Name] = len(out)
		out = append(out, e)
	}
	return &Catalog{f: f}, out, nil
}

// readCatalog scans every intact frame of a catalog file, returning the
// entries and the offset where the intact prefix ends.
func readCatalog(data []byte) ([]CatalogEntry, int64) {
	var entries []CatalogEntry
	off := 0
	for {
		payload, size, reason := codec.Next(data[off:], maxPayload)
		if reason != "" {
			break
		}
		d := codec.NewDecoder("netproto", payload)
		e := CatalogEntry{Name: d.Str(), TypeName: d.Str(), Scheme: d.Str()}
		if d.Done() != nil {
			break
		}
		entries = append(entries, e)
		off += size
	}
	return entries, int64(off)
}

// appendCatalogEntry appends e's frame to buf.
func appendCatalogEntry(buf []byte, e CatalogEntry) []byte {
	start := len(buf)
	buf = codec.AppendString(codec.AppendString(codec.StartFrame(buf), e.Name), e.TypeName)
	return codec.EndFrame(codec.AppendString(buf, e.Scheme), start)
}

// AppendBatch durably records a batch of registrations: one frame per
// entry, all written with one Write and fsynced with one Sync before
// AppendBatch returns, so an acknowledged batch survives any crash.  A
// crash mid-write leaves an intact prefix of the batch's frames and a torn
// tail that the next OpenCatalog drops; the shard never acknowledged that
// batch, so its client registers the rest again.  An empty batch writes
// nothing.
func (c *Catalog) AppendBatch(entries []CatalogEntry) error {
	if len(entries) == 0 {
		return nil
	}
	var buf []byte
	for _, e := range entries {
		buf = appendCatalogEntry(buf, e)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return errors.New("netproto: catalog closed")
	}
	if c.err != nil {
		return c.err
	}
	if _, err := c.f.Write(buf); err != nil {
		c.err = fmt.Errorf("netproto: catalog append: %w", err)
	} else if err := c.f.Sync(); err != nil {
		c.err = fmt.Errorf("netproto: catalog sync: %w", err)
	}
	return c.err
}

// Close releases the catalog file.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
