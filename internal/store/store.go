// Package store is the durable, content-addressed result tier behind
// the in-memory runner.Cache: an append-only segment file of memoized
// simulation cells, keyed by runner.Key. It implements runner.Tier, so
// a Cache wired to a Store (Cache.SetTier) consults disk on every miss
// and writes every completed cell through — across process restarts a
// sweep becomes an incremental build, re-simulating only cells the
// store has never seen.
//
// # On-disk layout
//
// One file, <dir>/cells.seg, holding a fixed header followed by
// self-checking records:
//
//	header:  magic "TEVSEG01" | schema version (u32) | engine version (u64)
//	record:  payload length (u32) | payload | CRC-32C of payload (u32)
//	payload: canonical key fields (platform, tool, bench as uvarint-
//	         prefixed strings; procs, size as varints; scale as float64
//	         bits) | key hash (u64) | value float64 bits | virtual ns
//	         (varint)
//
// All fixed-width integers are little-endian. The key hash is
// runner.Key.Hash over the canonical fields — the same content address
// that routes cells to remote workers — recorded per cell and
// re-verified on load.
//
// # Recovery, not rejection
//
// A store must never be the reason a sweep crashes or serves a wrong
// number, so every validation failure degrades to re-simulation:
//
//   - A header from a different schema or engine version means every
//     record is untrusted: the file is truncated to an empty store under
//     the current stamps (simulation-core changes invalidate cleanly).
//   - Loading stops at the first torn or corrupt record — a short tail
//     from a crash mid-append, a payload failing its checksum or its
//     key-hash check — and the file is truncated back to the last good
//     record. The intact prefix is kept; the damaged suffix re-simulates.
//   - Write errors trip a circuit breaker instead of latching the store
//     broken forever: after a few consecutive failures the store
//     degrades to lookup-only, then probes the disk again under
//     exponential backoff and resumes persisting once a probe succeeds.
//     Before any append after a failure, the segment is truncated back
//     to the last fully written record, so a torn half-frame from the
//     failure can never sit in the middle of the log. Err and Health
//     surface the circuit state; Close reports it.
//
// # Fault injection
//
// Every file operation goes through the File interface, and Open's
// WithFile option wraps the segment file — the seam the chaos suite
// uses (internal/faults) to inject write errors, torn writes, and
// fsync failures on a seeded schedule and assert the recovery story
// above actually holds, byte for byte.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tooleval/internal/runner"
)

// SchemaVersion is the on-disk record format version. Bump it when the
// header or record encoding changes shape; stores written under another
// schema are discarded wholesale on open.
const SchemaVersion = 1

// SegmentName is the segment file's name inside the store directory.
const SegmentName = "cells.seg"

var magic = [8]byte{'T', 'E', 'V', 'S', 'E', 'G', '0', '1'}

const headerSize = len(magic) + 4 + 8 // magic | schema u32 | engine u64

// maxPayload bounds a single record. Key strings are catalog names and
// benchmark ids — a length prefix beyond this is corruption, not data.
const maxPayload = 1 << 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrLocked is the sentinel under every "segment already open"
// failure: another store (in this process or another) holds the
// exclusive lock on the segment file. Match with errors.Is.
var ErrLocked = errors.New("store: segment locked by another store")

// File is the file-operation surface the store drives — the subset of
// *os.File it actually uses. internal/faults declares the same
// interface structurally and wraps it with seeded fault injection; the
// WithFile option is where a wrapped file slides in under the store.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is the disk-backed cell tier. It is safe for concurrent use;
// the full index is kept in memory (one sweep's matrix is hundreds of
// cells, a long-lived serving store maybe millions — both trivially
// resident), so Lookup never touches the file. The zero value is not
// usable; call Open.
type Store struct {
	mu       sync.RWMutex
	f        File
	index    map[runner.Key]runner.CellResult
	path     string
	br       *breaker
	now      func() time.Time
	goodOff  int64 // file offset just past the last fully written record
	dirty    bool  // a failed write may have left bytes past goodOff
	closed   bool
	closeErr error  // Close's result, replayed on repeat calls
	buf      []byte // record scratch buffer, reused under mu
}

var _ runner.Tier = (*Store)(nil)

// Option configures a Store at Open.
type Option func(*Store)

// WithFile wraps the opened segment file before recovery runs. The
// chaos suite uses it to interpose faults.FaultyFile; production code
// has no reason to.
func WithFile(wrap func(File) File) Option {
	return func(s *Store) { s.f = wrap(s.f) }
}

// WithBreaker tunes the write-path circuit breaker: trip after
// threshold consecutive failures, probe after base, backing off
// exponentially up to max. Non-positive values keep the defaults.
func WithBreaker(threshold int, base, max time.Duration) Option {
	return func(s *Store) { s.br = newBreaker(threshold, base, max) }
}

// WithClock substitutes the breaker's time source, for tests that
// drill the open → half-open → closed cycle without sleeping.
func WithClock(now func() time.Time) Option {
	return func(s *Store) { s.now = now }
}

// Open opens (creating if needed) the result store in dir, stamped with
// the given engine version. Recovery is part of opening: a segment file
// written under a different schema or engine version is emptied, and a
// torn or corrupt tail is truncated back to the last intact record —
// see the package comment. Open fails only on real IO errors
// (permissions, not-a-directory), never on damaged contents.
func Open(dir string, engineVersion uint64, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, SegmentName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Single-writer guard: take an exclusive advisory lock on the
	// segment before anything reads or writes it. Two daemons appending
	// to one log would interleave records into garbage both would then
	// "recover" by truncating each other's cells — fail the second open
	// fast and loudly instead. The lock lives on the file description
	// and is released when the store closes.
	if err := lockFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("store: %s is already open in another process (the segment file allows one writer; give each daemon its own -store directory): %w", dir, err)
		}
		return nil, fmt.Errorf("store: locking %s: %w", path, err)
	}
	s := &Store{
		f:     f,
		index: make(map[runner.Key]runner.CellResult),
		path:  path,
		br:    newBreaker(0, 0, 0),
		now:   time.Now,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.load(engineVersion); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// load reads the whole segment, verifying the header and every record,
// and leaves the file truncated to its valid prefix with the write
// offset at the end.
func (s *Store) load(engineVersion uint64) error {
	blob, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.path, err)
	}
	if !validHeader(blob, engineVersion) {
		// Fresh store, foreign schema, or a stale engine: every record is
		// untrusted. Restart the file under the current stamps.
		return s.reset(engineVersion)
	}
	good := headerSize // offset after the last fully valid record
	for off := headerSize; off < len(blob); {
		n, key, res, ok := decodeRecord(blob[off:])
		if !ok {
			break // torn or corrupt: keep the prefix, drop the rest
		}
		s.index[key] = res
		off += n
		good = off
	}
	if good < len(blob) {
		if err := s.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Seek(int64(good), io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.goodOff = int64(good)
	return nil
}

// reset truncates the segment to an empty store under the current
// version stamps.
func (s *Store) reset(engineVersion uint64) error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, SchemaVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, engineVersion)
	if _, err := s.f.Write(hdr); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	s.goodOff = int64(headerSize)
	return nil
}

func validHeader(blob []byte, engineVersion uint64) bool {
	if len(blob) < headerSize {
		return false
	}
	if string(blob[:len(magic)]) != string(magic[:]) {
		return false
	}
	if binary.LittleEndian.Uint32(blob[len(magic):]) != SchemaVersion {
		return false
	}
	return binary.LittleEndian.Uint64(blob[len(magic)+4:]) == engineVersion
}

// Lookup returns the stored result for key, if present. It implements
// runner.Tier.
func (s *Store) Lookup(key runner.Key) (runner.CellResult, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res, ok := s.index[key]
	return res, ok
}

// Fill appends the cell to the segment and indexes it. It implements
// runner.Tier: errors feed the circuit breaker (surfaced by Err,
// Health, and Close) instead of propagating into the simulation path,
// and a key the store already holds is not re-appended — cells are
// deterministic, so the stored record is already the record.
func (s *Store) Fill(key runner.Key, res runner.CellResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, ok := s.index[key]; ok {
		return
	}
	if !s.br.allow(s.now()) {
		return // circuit open: lookup-only until the backoff elapses
	}
	// A failed write may have left a torn half-frame past goodOff; cut
	// it off before appending so the log stays a clean record sequence.
	if s.dirty {
		if err := s.repair(); err != nil {
			s.br.fail(s.now(), fmt.Errorf("store: repairing %s: %w", s.path, err))
			return
		}
	}
	// One contiguous [len | payload | crc] frame, one Write call: a crash
	// can tear the tail record but never interleave two.
	frame := append(s.buf[:0], 0, 0, 0, 0) // length prefix, patched below
	frame = appendPayload(frame, key, res)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[4:], crcTable))
	n, err := s.f.Write(frame)
	s.buf = frame[:0]
	if err == nil && n < len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.dirty = true
		s.br.fail(s.now(), fmt.Errorf("store: appending to %s: %w", s.path, err))
		return
	}
	s.goodOff += int64(len(frame))
	s.br.ok()
	s.index[key] = res
}

// repair truncates the segment back to the last fully written record
// and repositions the write offset there. Called with mu held.
func (s *Store) repair() error {
	if err := s.f.Truncate(s.goodOff); err != nil {
		return err
	}
	if _, err := s.f.Seek(s.goodOff, io.SeekStart); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Len reports how many cells the store holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Path returns the segment file's path.
func (s *Store) Path() string { return s.path }

// Err returns the last write error while the circuit is not closed,
// and nil once the store has recovered (a successful probe clears it).
// A store with an open circuit still serves lookups; it just is not
// persisting new cells until a probe succeeds.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return s.closeErr
	}
	if s.br.open {
		return s.br.err
	}
	return nil
}

// Close syncs and closes the segment file. It returns the circuit's
// pending write error if the store closed while degraded, or the
// sync/close error itself. After Close, Fill is a no-op and Lookup
// still answers from the in-memory index (a cache holding a closed tier
// keeps working; it just stops gaining durability).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	var err error
	if s.br.open {
		err = s.br.err
	}
	if serr := s.f.Sync(); err == nil && serr != nil {
		err = fmt.Errorf("store: syncing %s: %w", s.path, serr)
	}
	if cerr := s.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: closing %s: %w", s.path, cerr)
	}
	s.closeErr = err
	return err
}

// appendPayload encodes one cell record's payload onto buf.
func appendPayload(buf []byte, key runner.Key, res runner.CellResult) []byte {
	buf = appendString(buf, key.Platform)
	buf = appendString(buf, key.Tool)
	buf = appendString(buf, key.Bench)
	buf = binary.AppendVarint(buf, int64(key.Procs))
	buf = binary.AppendVarint(buf, int64(key.Size))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(key.Scale))
	buf = binary.LittleEndian.AppendUint64(buf, key.Hash())
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Value))
	buf = binary.AppendVarint(buf, int64(res.Virtual))
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeRecord decodes one framed record from the front of blob,
// returning the total frame length consumed. ok is false for anything
// other than a fully intact record: a torn frame, a checksum mismatch,
// a malformed payload, or a key whose recorded hash does not match its
// fields.
func decodeRecord(blob []byte) (n int, key runner.Key, res runner.CellResult, ok bool) {
	if len(blob) < 4 {
		return 0, key, res, false
	}
	plen := int(binary.LittleEndian.Uint32(blob))
	if plen <= 0 || plen > maxPayload || len(blob) < 4+plen+4 {
		return 0, key, res, false
	}
	payload := blob[4 : 4+plen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(blob[4+plen:]) {
		return 0, key, res, false
	}
	key, res, ok = decodePayload(payload)
	if !ok {
		return 0, key, res, false
	}
	return 4 + plen + 4, key, res, true
}

func decodePayload(p []byte) (key runner.Key, res runner.CellResult, ok bool) {
	var hash uint64
	if key.Platform, p, ok = takeString(p); !ok {
		return key, res, false
	}
	if key.Tool, p, ok = takeString(p); !ok {
		return key, res, false
	}
	if key.Bench, p, ok = takeString(p); !ok {
		return key, res, false
	}
	var v int64
	if v, p, ok = takeVarint(p); !ok {
		return key, res, false
	}
	key.Procs = int(v)
	if v, p, ok = takeVarint(p); !ok {
		return key, res, false
	}
	key.Size = int(v)
	var u uint64
	if u, p, ok = takeUint64(p); !ok {
		return key, res, false
	}
	key.Scale = math.Float64frombits(u)
	if hash, p, ok = takeUint64(p); !ok {
		return key, res, false
	}
	if hash != key.Hash() {
		return key, res, false // fields and fingerprint disagree: corrupt
	}
	if u, p, ok = takeUint64(p); !ok {
		return key, res, false
	}
	res.Value = math.Float64frombits(u)
	if v, p, ok = takeVarint(p); !ok {
		return key, res, false
	}
	res.Virtual = time.Duration(v)
	return key, res, len(p) == 0 // trailing bytes inside the frame: corrupt
}

func takeString(p []byte) (string, []byte, bool) {
	l, n := binary.Uvarint(p)
	if n <= 0 || l > uint64(len(p)-n) {
		return "", p, false
	}
	return string(p[n : n+int(l)]), p[n+int(l):], true
}

func takeVarint(p []byte) (int64, []byte, bool) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, false
	}
	return v, p[n:], true
}

func takeUint64(p []byte) (uint64, []byte, bool) {
	if len(p) < 8 {
		return 0, p, false
	}
	return binary.LittleEndian.Uint64(p), p[8:], true
}
