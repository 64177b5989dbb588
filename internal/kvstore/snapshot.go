package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/model"
	"repro/internal/token"
)

// FMC1-style snapshot layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "FMC1"
//	     4     4  version (currently 1)
//	     8     4  entry count
//	    12     4  reserved (zero)
//	    16     8  FNV-1a 64 checksum of the index region
//	    24     8  total file size in bytes
//	    32   48·n  index records, sorted by strictly increasing Seq
//	     …      …  entry payloads (the spans the index points into)
//
// Each 48-byte index record:
//
//	offset  size  field
//	     0     8  Root: context hash of the prefix's first token
//	     4     8  Seq: store sequence number (unique, monotonic)
//	    16     4  Start: absolute position of the first token
//	    20     4  Tokens: number of token records in the payload
//	    24     8  DataOff: absolute byte offset of the payload
//	    32     4  DataLen: payload length in bytes
//	    36     4  Flags (bit 0: named — restorable after a restart)
//	    40     8  FNV-1a 64 checksum of the payload
//
// Everything recovery needs to decide eligibility — which prefixes exist,
// how big they are, whether they are named — lives in the fixed-size
// index, so a loader reads header+index and then only the payloads of the
// entries it keeps. Payloads hold the variable-length identity (path,
// owner, mode) followed by 16 bytes per token (ID, position, KV hash).
const (
	snapMagic      = "FMC1"
	snapVersion    = 1
	snapHeaderSize = 32
	snapRecordSize = 48

	// FlagNamed marks an entry belonging to a named KVFS file, the only
	// kind a warm restart re-imports; unnamed spills are garbage once
	// their owning process is gone.
	FlagNamed = 1 << 0
	// FlagApprox marks a prefix whose context is approximate (assembled
	// by Extract/Merge KV reuse rather than exact recompute), so a
	// re-import restores the same semantics.
	FlagApprox = 1 << 1

	// maxSnapshotEntries bounds the index a decoder will even consider,
	// so a corrupted count field cannot provoke a huge allocation.
	maxSnapshotEntries = 1 << 22
)

// Rec is one token's KV record. kvfs.Entry is an alias of it, so a KVFS
// file's entries go into and come out of a snapshot without conversion;
// the type lives here because kvfs builds its DiskTier on this package,
// not the reverse.
type Rec struct {
	Tok token.ID
	Pos int
	KV  model.CtxHash
}

// SnapshotEntry is one exported KV prefix: its identity plus the token
// records needed to recreate the KVFS file exactly.
type SnapshotEntry struct {
	Root   model.CtxHash
	Seq    uint64
	Path   string // "" for anonymous spills
	Owner  string
	Mode   uint8
	Approx bool
	Recs   []Rec
}

// IndexRecord is the decoded fixed-size index entry for one prefix.
type IndexRecord struct {
	Root     model.CtxHash
	Seq      uint64
	Start    uint32
	Tokens   uint32
	DataOff  uint64
	DataLen  uint32
	Flags    uint32
	Checksum uint64
}

// Named reports whether the entry belongs to a named KVFS file.
func (r IndexRecord) Named() bool { return r.Flags&FlagNamed != 0 }

func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// EncodeSnapshot serializes entries into one snapshot image. Entries are
// written in ascending Seq order regardless of input order; duplicate or
// out-of-range values are rejected rather than silently mangled.
func EncodeSnapshot(entries []SnapshotEntry) ([]byte, error) {
	sorted := append([]SnapshotEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	payloads := make([][]byte, len(sorted))
	for i, e := range sorted {
		if i > 0 && e.Seq <= sorted[i-1].Seq {
			return nil, fmt.Errorf("kvstore: duplicate snapshot seq %d", e.Seq)
		}
		p, err := encodePayload(e)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}

	indexSize := snapRecordSize * len(sorted)
	dataOff := snapHeaderSize + indexSize
	total := dataOff
	for _, p := range payloads {
		total += len(p)
	}
	buf := make([]byte, total)
	copy(buf[0:4], snapMagic)
	binary.LittleEndian.PutUint32(buf[4:8], snapVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(sorted)))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(total))

	off := dataOff
	for i, e := range sorted {
		rec := buf[snapHeaderSize+i*snapRecordSize:]
		binary.LittleEndian.PutUint64(rec[0:8], uint64(e.Root))
		binary.LittleEndian.PutUint64(rec[8:16], e.Seq)
		var start uint32
		if len(e.Recs) > 0 {
			start = uint32(e.Recs[0].Pos)
		}
		binary.LittleEndian.PutUint32(rec[16:20], start)
		binary.LittleEndian.PutUint32(rec[20:24], uint32(len(e.Recs)))
		binary.LittleEndian.PutUint64(rec[24:32], uint64(off))
		binary.LittleEndian.PutUint32(rec[32:36], uint32(len(payloads[i])))
		var flags uint32
		if e.Path != "" {
			flags |= FlagNamed
		}
		if e.Approx {
			flags |= FlagApprox
		}
		binary.LittleEndian.PutUint32(rec[36:40], flags)
		binary.LittleEndian.PutUint64(rec[40:48], checksum(payloads[i]))
		copy(buf[off:], payloads[i])
		off += len(payloads[i])
	}
	binary.LittleEndian.PutUint64(buf[16:24], checksum(buf[snapHeaderSize:dataOff]))
	return buf, nil
}

// encodePayload serializes one entry's variable part: path, owner, mode,
// then 16 bytes per token record.
func encodePayload(e SnapshotEntry) ([]byte, error) {
	if len(e.Path) > 0xffff || len(e.Owner) > 0xffff {
		return nil, fmt.Errorf("kvstore: snapshot name too long (%d/%d bytes)", len(e.Path), len(e.Owner))
	}
	p := make([]byte, 0, 5+len(e.Path)+len(e.Owner)+16*len(e.Recs))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(e.Path)))
	p = append(p, e.Path...)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(e.Owner)))
	p = append(p, e.Owner...)
	p = append(p, e.Mode)
	for _, r := range e.Recs {
		if r.Pos < 0 || r.Pos > 0xffffffff {
			return nil, fmt.Errorf("kvstore: token position %d out of range", r.Pos)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(r.Tok))
		p = binary.LittleEndian.AppendUint32(p, uint32(r.Pos))
		p = binary.LittleEndian.AppendUint64(p, uint64(r.KV))
	}
	return p, nil
}

// decodeIndex validates the header against size (the number of bytes the
// snapshot claims to span) and returns the index records. It rejects bad
// magic, unknown versions, truncation, index corruption, and unsorted or
// out-of-bounds records — a decoder that must never panic or fabricate
// entries from garbage.
func decodeIndex(hdr []byte, size int64) ([]IndexRecord, error) {
	if len(hdr) < snapHeaderSize {
		return nil, fmt.Errorf("kvstore: snapshot header truncated at %d bytes", len(hdr))
	}
	if string(hdr[0:4]) != snapMagic {
		return nil, fmt.Errorf("kvstore: bad snapshot magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapVersion {
		return nil, fmt.Errorf("kvstore: unsupported snapshot version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count > maxSnapshotEntries {
		return nil, fmt.Errorf("kvstore: snapshot claims %d entries", count)
	}
	if got := binary.LittleEndian.Uint64(hdr[24:32]); got != uint64(size) {
		return nil, fmt.Errorf("kvstore: snapshot size %d, header says %d", size, got)
	}
	indexEnd := snapHeaderSize + snapRecordSize*int64(count)
	if indexEnd > int64(len(hdr)) || indexEnd > size {
		return nil, fmt.Errorf("kvstore: snapshot index truncated")
	}
	if got := checksum(hdr[snapHeaderSize:indexEnd]); got != binary.LittleEndian.Uint64(hdr[16:24]) {
		return nil, fmt.Errorf("kvstore: snapshot index checksum mismatch")
	}
	recs := make([]IndexRecord, count)
	for i := range recs {
		b := hdr[snapHeaderSize+i*snapRecordSize:]
		recs[i] = IndexRecord{
			Root:     model.CtxHash(binary.LittleEndian.Uint64(b[0:8])),
			Seq:      binary.LittleEndian.Uint64(b[8:16]),
			Start:    binary.LittleEndian.Uint32(b[16:20]),
			Tokens:   binary.LittleEndian.Uint32(b[20:24]),
			DataOff:  binary.LittleEndian.Uint64(b[24:32]),
			DataLen:  binary.LittleEndian.Uint32(b[32:36]),
			Flags:    binary.LittleEndian.Uint32(b[36:40]),
			Checksum: binary.LittleEndian.Uint64(b[40:48]),
		}
		r := recs[i]
		if i > 0 && r.Seq <= recs[i-1].Seq {
			return nil, fmt.Errorf("kvstore: snapshot index not seq-sorted at %d", i)
		}
		// Overflow-safe span check: DataOff+DataLen must not wrap.
		if r.DataOff < uint64(indexEnd) || r.DataOff > uint64(size) || uint64(r.DataLen) > uint64(size)-r.DataOff {
			return nil, fmt.Errorf("kvstore: snapshot payload span [%d,+%d) out of bounds", r.DataOff, r.DataLen)
		}
	}
	return recs, nil
}

// decodePayload validates one payload against its index record and
// decodes it; the index record's checksum has already been verified.
func decodePayload(rec IndexRecord, p []byte) (SnapshotEntry, error) {
	e := SnapshotEntry{Root: rec.Root, Seq: rec.Seq, Approx: rec.Flags&FlagApprox != 0}
	read := func(n int) ([]byte, bool) {
		if n < 0 || n > len(p) {
			return nil, false
		}
		b := p[:n]
		p = p[n:]
		return b, true
	}
	lenB, ok := read(2)
	if !ok {
		return e, fmt.Errorf("kvstore: snapshot payload truncated (path length)")
	}
	pathB, ok := read(int(binary.LittleEndian.Uint16(lenB)))
	if !ok {
		return e, fmt.Errorf("kvstore: snapshot payload truncated (path)")
	}
	e.Path = string(pathB)
	lenB, ok = read(2)
	if !ok {
		return e, fmt.Errorf("kvstore: snapshot payload truncated (owner length)")
	}
	ownerB, ok := read(int(binary.LittleEndian.Uint16(lenB)))
	if !ok {
		return e, fmt.Errorf("kvstore: snapshot payload truncated (owner)")
	}
	e.Owner = string(ownerB)
	modeB, ok := read(1)
	if !ok {
		return e, fmt.Errorf("kvstore: snapshot payload truncated (mode)")
	}
	e.Mode = modeB[0]
	if len(p) != 16*int(rec.Tokens) {
		return e, fmt.Errorf("kvstore: snapshot payload holds %d bytes for %d tokens", len(p), rec.Tokens)
	}
	if (e.Path != "") != rec.Named() {
		return e, fmt.Errorf("kvstore: snapshot payload path disagrees with index flags")
	}
	e.Recs = make([]Rec, rec.Tokens)
	for i := range e.Recs {
		b := p[16*i:]
		e.Recs[i] = Rec{
			Tok: token.ID(binary.LittleEndian.Uint32(b[0:4])),
			Pos: int(binary.LittleEndian.Uint32(b[4:8])),
			KV:  model.CtxHash(binary.LittleEndian.Uint64(b[8:16])),
		}
	}
	if len(e.Recs) > 0 && uint32(e.Recs[0].Pos) != rec.Start {
		return e, fmt.Errorf("kvstore: snapshot payload start %d disagrees with index %d", e.Recs[0].Pos, rec.Start)
	}
	return e, nil
}

// DecodeSnapshot parses a complete snapshot image, validating every
// checksum and bound. Corrupted or truncated input yields an error, never
// a panic or phantom entries.
func DecodeSnapshot(data []byte) ([]SnapshotEntry, error) {
	recs, err := decodeIndex(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	entries := make([]SnapshotEntry, 0, len(recs))
	for _, rec := range recs {
		p := data[rec.DataOff : rec.DataOff+uint64(rec.DataLen)]
		if checksum(p) != rec.Checksum {
			return nil, fmt.Errorf("kvstore: snapshot payload checksum mismatch at seq %d", rec.Seq)
		}
		e, err := decodePayload(rec, p)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// ReadSnapshotIndex reads and validates only the header and index of a
// snapshot file — the eligibility-filtering read path: recovery decides
// per IndexRecord whether an entry is worth its payload I/O.
func ReadSnapshotIndex(f File) ([]IndexRecord, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, snapHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count > maxSnapshotEntries {
		return nil, fmt.Errorf("kvstore: snapshot claims %d entries", count)
	}
	full := make([]byte, snapHeaderSize+snapRecordSize*int64(count))
	if int64(len(full)) > size {
		return nil, fmt.Errorf("kvstore: snapshot index truncated")
	}
	if _, err := f.ReadAt(full, 0); err != nil {
		return nil, err
	}
	return decodeIndex(full, size)
}

// ReadSnapshotEntry reads, validates, and decodes one entry's payload.
func ReadSnapshotEntry(f File, rec IndexRecord) (SnapshotEntry, error) {
	p := make([]byte, rec.DataLen)
	if _, err := f.ReadAt(p, int64(rec.DataOff)); err != nil {
		return SnapshotEntry{}, err
	}
	if checksum(p) != rec.Checksum {
		return SnapshotEntry{}, fmt.Errorf("kvstore: snapshot payload checksum mismatch at seq %d", rec.Seq)
	}
	return decodePayload(rec, p)
}
