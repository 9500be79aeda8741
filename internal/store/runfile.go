package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Version 4 makes the run the on-disk unit. The store directory holds
// one directory per benchmark (benchDirName) and in it one file per run
// (runFileName), each written as a temp file renamed into place. A run
// file is little-endian and fixed-width throughout:
//
//	header   runMagic, version uint32 (4), head length uint32
//	head     Benchmark, Mode, RunID int64, Intervals int64,
//	         Samples int64, IPC flag uint8, event count uint32, events
//	series   one column per event in head order, then IPC if flagged:
//	         length uint32, then the float64 bits of each value
//	trailer  CRC-32C of every byte before it, uint32
//
// Strings are a uint32 length and the bytes; the events are strictly
// increasing and never the reserved IPC column name. The series table
// name is not stored: it is always "series/" + key.
//
// The encoding is written by hand rather than with gob because a gob
// stream carries type ids that depend on which types the process
// encoded first, so one run would encode to different bytes in
// different processes. Here a run has exactly one encoding and the
// reader accepts only that encoding, so every file that decodes
// re-encodes to its own bytes.
const (
	runMagic         = "CMDBRUN\x00"
	runFormatVersion = 4
	runHeaderLen     = len(runMagic) + 8
	runSuffix        = ".run"
	// maxRunHead bounds the head a reader will allocate for: far above
	// any real event list, far below memory.
	maxRunHead = 1 << 24
	// maxReadable bounds the readable part of a file name.
	maxReadable = 96
)

// runChecksum is the CRC-32C of b. The table is made on first use
// rather than at package init, where building it (a few hundred
// microseconds) would add to every daemon start, run files or not.
func runChecksum(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

// runHead is a run file's head: the run's first-level row and its
// stored value count — all that Open reads.
type runHead struct {
	Meta    RunMeta
	Samples int64
	IPC     bool
}

// columns is the number of series columns the head announces.
func (h runHead) columns() int64 {
	n := int64(len(h.Meta.Events))
	if h.IPC {
		n++
	}
	return n
}

// diskName maps a name to a file-system-safe one: unsafe bytes are
// percent-encoded for readability's sake, and an FNV-1a hash of the raw
// name is appended so distinct names do not collide on disk (across
// escaping or case-insensitive filesystems). The readable part stops
// after maxReadable bytes, which keeps every name far below the usual
// 255-byte limit; the hash still covers the whole name. The result
// never starts with a dot, so it never collides with a temp file.
func diskName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name) && b.Len() < maxReadable; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return fmt.Sprintf("%s-%08x", b.String(), h.Sum32())
}

// benchDirName names a benchmark's directory of run files.
func benchDirName(benchmark string) string { return diskName(benchmark) }

// runFileName names a run's file inside its benchmark's directory.
func runFileName(runID int, mode string) string {
	return diskName(strconv.Itoa(runID)+"-"+mode) + runSuffix
}

// runHeadLen is the size of meta's run file head.
func runHeadLen(meta RunMeta) int {
	n := 4 + len(meta.Benchmark) + 4 + len(meta.Mode) + 3*8 + 1 + 4
	for _, ev := range meta.Events {
		n += 4 + len(ev)
	}
	return n
}

// encodeRun returns a run's v4 file image. meta.Events lists exactly
// the non-IPC columns of table, sorted, as Put stores them, and the
// head fits maxRunHead.
func encodeRun(meta RunMeta, table map[string][]float64) []byte {
	ipc, hasIPC := table[ipcColumn]
	var samples int64
	for _, ev := range meta.Events {
		samples += int64(len(table[ev]))
	}
	cols := len(meta.Events)
	if hasIPC {
		samples += int64(len(ipc))
		cols++
	}
	size := runHeaderLen + runHeadLen(meta) + 4*cols + 8*int(samples) + 4
	b := make([]byte, 0, size)
	b = append(b, runMagic...)
	b = binary.LittleEndian.AppendUint32(b, runFormatVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // head length, patched below
	b = appendString(b, meta.Benchmark)
	b = appendString(b, meta.Mode)
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.RunID))
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Intervals))
	b = binary.LittleEndian.AppendUint64(b, uint64(samples))
	flag := byte(0)
	if hasIPC {
		flag = 1
	}
	b = append(b, flag)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(meta.Events)))
	for _, ev := range meta.Events {
		b = appendString(b, ev)
	}
	binary.LittleEndian.PutUint32(b[runHeaderLen-4:], uint32(len(b)-runHeaderLen))
	for _, ev := range meta.Events {
		b = appendColumn(b, table[ev])
	}
	if hasIPC {
		b = appendColumn(b, ipc)
	}
	return binary.LittleEndian.AppendUint32(b, runChecksum(b))
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func appendColumn(b []byte, vals []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// runReader walks a byte slice. The first read past the end sets err,
// and every later read returns zero values.
type runReader struct {
	b   []byte
	err error
}

var errRunShort = errors.New("store: run file truncated")

func (r *runReader) next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errRunShort
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *runReader) u8() byte {
	if p := r.next(1); r.err == nil {
		return p[0]
	}
	return 0
}

func (r *runReader) u32() uint32 {
	if p := r.next(4); r.err == nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *runReader) i64() int64 {
	if p := r.next(8); r.err == nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (r *runReader) str() string { return string(r.next(uint64(r.u32()))) }

// parseRunHeader checks a run file's magic and version and returns the
// length of the head that follows.
func parseRunHeader(b []byte) (int, error) {
	if len(b) < runHeaderLen || string(b[:len(runMagic)]) != runMagic {
		return 0, errors.New("store: not a run file")
	}
	if v := binary.LittleEndian.Uint32(b[len(runMagic):]); v != runFormatVersion {
		return 0, fmt.Errorf("store: run file has format version %d, want %d", v, runFormatVersion)
	}
	n := binary.LittleEndian.Uint32(b[len(runMagic)+4:])
	if n > maxRunHead {
		return 0, fmt.Errorf("store: run file head of %d bytes", n)
	}
	return int(n), nil
}

// parseRunHead decodes a run file's head, which must span b exactly.
func parseRunHead(b []byte) (runHead, error) {
	r := runReader{b: b}
	var h runHead
	m := &h.Meta
	m.Benchmark = r.str()
	m.Mode = r.str()
	runID, intervals := r.i64(), r.i64()
	h.Samples = r.i64()
	flag := r.u8()
	// Every event name takes at least its 4-byte length, which bounds
	// the allocation below by the head's size.
	if n := r.u32(); r.err == nil && n > 0 {
		if uint64(n)*4 > uint64(len(r.b)) {
			return h, errRunShort
		}
		m.Events = make([]string, n)
		for i := range m.Events {
			m.Events[i] = r.str()
			if r.err == nil && (m.Events[i] == ipcColumn || i > 0 && m.Events[i] <= m.Events[i-1]) {
				return h, errors.New("store: run file events not strictly increasing")
			}
		}
	}
	switch {
	case r.err != nil:
		return h, r.err
	case len(r.b) != 0:
		return h, errors.New("store: run file head has trailing bytes")
	case flag > 1:
		return h, fmt.Errorf("store: run file IPC flag %d", flag)
	case int64(int(runID)) != runID || int64(int(intervals)) != intervals:
		return h, errors.New("store: run file run id or length out of range")
	case h.Samples < 0:
		return h, fmt.Errorf("store: run file has %d samples", h.Samples)
	}
	m.RunID, m.Intervals, h.IPC = int(runID), int(intervals), flag == 1
	if m.Benchmark == "" || m.Mode == "" {
		return h, errors.New("store: run file without benchmark or mode")
	}
	m.SeriesTable = "series/" + key(m.Benchmark, m.RunID, m.Mode)
	return h, nil
}

// readRunHead reads only a run file's header and head — what Open
// needs. Every column costs a 4-byte length and every sample 8 bytes,
// so the file size pins the sample count: a file whose size disagrees
// with its head (truncated, extended, or claiming a negative or
// overflowing count) is rejected here, without reading the series.
func readRunHead(path string) (runHead, error) {
	f, err := os.Open(path)
	if err != nil {
		return runHead{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return runHead{}, err
	}
	size := fi.Size() - int64(runHeaderLen) // bytes after the header
	var hdr [runHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return runHead{}, err
	}
	n, err := parseRunHeader(hdr[:])
	if err != nil {
		return runHead{}, err
	}
	if int64(n) > size {
		return runHead{}, errRunShort
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(f, buf); err != nil {
		return runHead{}, err
	}
	h, err := parseRunHead(buf)
	if err != nil {
		return runHead{}, err
	}
	body := size - int64(n) - 4 - 4*h.columns()
	if body < 0 || h.Samples > body/8 || 8*h.Samples != body {
		return runHead{}, fmt.Errorf("store: run file %s: size disagrees with %d samples", path, h.Samples)
	}
	return h, nil
}

// decodeRun decodes a whole run file image: the checksum, the head, and
// exactly the announced columns with exactly the announced sample count.
func decodeRun(b []byte) (RunMeta, map[string][]float64, error) {
	if len(b) < runHeaderLen+4 {
		return RunMeta{}, nil, errRunShort
	}
	body := b[:len(b)-4]
	if runChecksum(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return RunMeta{}, nil, errors.New("store: run file checksum mismatch")
	}
	n, err := parseRunHeader(body)
	if err != nil {
		return RunMeta{}, nil, err
	}
	if n > len(body)-runHeaderLen {
		return RunMeta{}, nil, errRunShort
	}
	h, err := parseRunHead(body[runHeaderLen : runHeaderLen+n])
	if err != nil {
		return RunMeta{}, nil, err
	}
	r := runReader{b: body[runHeaderLen+n:]}
	table := make(map[string][]float64, h.columns())
	var total int64
	column := func(ev string) {
		cnt := uint64(r.u32())
		p := r.next(8 * cnt)
		if r.err != nil {
			return
		}
		vals := make([]float64, cnt)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		table[ev] = vals
		total += int64(cnt)
	}
	for _, ev := range h.Meta.Events {
		column(ev)
	}
	if h.IPC {
		column(ipcColumn)
	}
	switch {
	case r.err != nil:
		return RunMeta{}, nil, r.err
	case len(r.b) != 0:
		return RunMeta{}, nil, errors.New("store: run file has trailing bytes")
	case total != h.Samples:
		return RunMeta{}, nil, fmt.Errorf("store: run file holds %d samples, head says %d", total, h.Samples)
	}
	return h.Meta, table, nil
}

// readRun reads and decodes one run file.
func readRun(path string) (RunMeta, map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return RunMeta{}, nil, err
	}
	return decodeRun(b)
}

// writeRun writes one run's file into dir atomically: a temp file
// renamed over the run's name.
func writeRun(dir string, meta RunMeta, table map[string][]float64) error {
	tmp, err := os.CreateTemp(dir, ".cmdb-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(encodeRun(meta, table))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(dir, runFileName(meta.RunID, meta.Mode)))
	}
	if err != nil {
		os.Remove(tmpName)
	}
	return err
}
