package scan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Snapshot is one shard's mergeable scan state: the three §4 accumulators
// plus enough metadata to resume an interrupted shard exactly where it
// stopped. A campaign checkpoints a Snapshot to disk on an interval and
// `edereport -merge` folds shard snapshots into one report.
//
// The wire encoding is canonical: maps are written sorted by key and Tranco
// ranks sorted ascending, so two snapshots describing the same observations
// encode to identical bytes regardless of worker count or completion order.
// That is what lets CI assert an interrupted-then-resumed shard is
// byte-identical to an uninterrupted run. Which names are folded (Position
// and Done), Queries, and Resolutions are bookkeeping — a resumed run
// legitimately re-issues queries for results that were in flight at the
// kill — so they live in the header, not in the aggregate payload that
// AggregateBytes compares.
type Snapshot struct {
	// Shard and Shards identify the population range this snapshot covers
	// (shard Shard of Shards total); Size is the number of names in it.
	Shard  int
	Shards int
	Size   uint64
	// Position is the shard's frontier: its first Position names are all
	// folded into the aggregates, and name Position is not (or does not
	// exist: Position == Size once the shard is finished).
	Position uint64
	// Done holds the names past the frontier that are folded too — a scan
	// folds each result as it completes, so a slow name leaves later ones
	// done ahead of it. It is a bitmap: bit i (byte i/8, least significant
	// bit first) stands for name Position+1+i. Its last byte is never zero,
	// so one set has one encoding, and it is empty when the frontier is all
	// that is folded. A resumed run resolves the names that are neither
	// below Position nor in Done (Folded).
	Done []byte
	// Queries and Resolutions count the resolver work behind this snapshot
	// (for rate bookkeeping; excluded from the canonical aggregate payload).
	Queries     uint64
	Resolutions uint64

	Agg    *Aggregate
	TLD    *TLDAggregate
	Tranco *TrancoAggregate
}

// Wire format v3 (all integers big-endian):
//
//	magic "EDES" | version u16 | gzip(body) | crc32-IEEE u32 over everything preceding it
//
// where body is:
//
//	shard u32 | shards u32 | size u64 | position u64 | queries u64 | resolutions u64
//	done length u32 | done bitmap
//	aggregate payload (see appendAggregates)
//
// The outer CRC covers the compressed bytes, so corruption is rejected
// without paying for decompression first. v1 framed a body without size and
// done set uncompressed, v2 compressed it; DecodeSnapshot refuses both like
// any other unknown version.
const (
	snapshotMagic   = "EDES"
	snapshotVersion = 3
	// maxSnapshotBody caps the decompressed v3 body: a hostile checkpoint
	// must not be able to balloon a few KiB of gzip into unbounded memory.
	maxSnapshotBody = 64 << 20
)

var (
	// ErrSnapshotCorrupt reports a snapshot that fails structural or CRC
	// validation.
	ErrSnapshotCorrupt = errors.New("scan: corrupt snapshot")
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("scan: unsupported snapshot version")
)

// Encode serializes the snapshot into the canonical v3 wire format. The
// gzip layer uses a fixed compression level and the stock zero header, so
// equal bodies still encode to identical bytes.
func (s *Snapshot) Encode() []byte {
	body := s.appendBody(make([]byte, 0, 1024))
	var zb bytes.Buffer
	zw, err := gzip.NewWriterLevel(&zb, gzip.BestCompression)
	if err != nil {
		panic(err) // fixed valid level
	}
	if _, err := zw.Write(body); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	buf := make([]byte, 0, len(snapshotMagic)+2+zb.Len()+4)
	buf = append(buf, snapshotMagic...)
	buf = binary.BigEndian.AppendUint16(buf, snapshotVersion)
	buf = append(buf, zb.Bytes()...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func (s *Snapshot) appendBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Shard))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Shards))
	buf = binary.BigEndian.AppendUint64(buf, s.Size)
	buf = binary.BigEndian.AppendUint64(buf, s.Position)
	buf = binary.BigEndian.AppendUint64(buf, s.Queries)
	buf = binary.BigEndian.AppendUint64(buf, s.Resolutions)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Done)))
	buf = append(buf, s.Done...)
	return s.appendAggregates(buf)
}

// Folded reports whether the shard's name i is in the aggregates: below the
// frontier, or in the done set past it.
func (s *Snapshot) Folded(i uint64) bool {
	if i < s.Position {
		return true
	}
	if i == s.Position {
		return false
	}
	b := i - s.Position - 1
	return b/8 < uint64(len(s.Done)) && s.Done[b/8]&(1<<(b%8)) != 0
}

// FoldedCount is the number of the shard's names in the aggregates.
func (s *Snapshot) FoldedCount() uint64 {
	n := s.Position
	for _, b := range s.Done {
		n += uint64(bits.OnesCount8(b))
	}
	return n
}

// AggregateBytes returns only the canonical aggregate payload — the portion
// of the encoding that must be byte-identical between an interrupted-then-
// resumed shard and an uninterrupted run (volatile meta like query counts
// excluded).
func (s *Snapshot) AggregateBytes() []byte {
	return s.appendAggregates(make([]byte, 0, 1024))
}

// Merge folds another snapshot (typically a different shard of the same
// campaign) into s, summing both the aggregates and the meta counters. The
// result has no frontier of its own: its Position is the number of names
// the two fold between them, its done set is empty, and its Size is the
// two sizes' sum.
func (s *Snapshot) Merge(o *Snapshot) {
	s.Size += o.Size
	s.Position = s.FoldedCount() + o.FoldedCount()
	s.Done = nil
	s.Queries += o.Queries
	s.Resolutions += o.Resolutions
	s.Agg.Merge(o.Agg)
	s.TLD.Merge(o.TLD)
	// A decoded snapshot's Tranco carries the list size; merging shards of
	// one campaign must not sum it.
	if s.Tranco.stats.ListSize == 0 {
		s.Tranco.stats.ListSize = o.Tranco.stats.ListSize
	}
	s.Tranco.Merge(o.Tranco)
}

func (s *Snapshot) appendAggregates(buf []byte) []byte {
	// Aggregate: totals, then both count maps sorted by key.
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Agg.Total))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Agg.WithEDE))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Agg.NoErrorWithEDE))
	codes := make([]uint16, 0, len(s.Agg.CodeCounts))
	for c := range s.Agg.CodeCounts {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(codes)))
	for _, c := range codes {
		buf = binary.BigEndian.AppendUint16(buf, c)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.Agg.CodeCounts[c]))
	}
	rcodes := make([]dnswire.RCode, 0, len(s.Agg.RCodes))
	for rc := range s.Agg.RCodes {
		rcodes = append(rcodes, rc)
	}
	sort.Slice(rcodes, func(i, j int) bool { return rcodes[i] < rcodes[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rcodes)))
	for _, rc := range rcodes {
		buf = binary.BigEndian.AppendUint16(buf, uint16(rc))
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.Agg.RCodes[rc]))
	}

	// TLDAggregate: touched rows only (zero rows exist for every population
	// TLD but carry no information), sorted by label so the encoding does
	// not depend on whether the accumulator was built from a population or
	// decoded from a snapshot.
	labels := make([]string, 0, len(s.TLD.rows))
	for label, row := range s.TLD.rows {
		if row.Total != 0 || row.WithEDE != 0 {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(labels)))
	for _, label := range labels {
		row := s.TLD.rows[label]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(label)))
		buf = append(buf, label...)
		var cc byte
		if row.CC {
			cc = 1
		}
		buf = append(buf, cc)
		buf = binary.BigEndian.AppendUint64(buf, uint64(row.Total))
		buf = binary.BigEndian.AppendUint64(buf, uint64(row.WithEDE))
	}

	// TrancoAggregate: overlap stats with ranks sorted ascending (completion
	// order appends them arbitrarily).
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Tranco.stats.ListSize))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Tranco.stats.Overlap))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.Tranco.stats.NoError))
	ranks := append([]int(nil), s.Tranco.stats.Ranks...)
	sort.Ints(ranks)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ranks)))
	for _, r := range ranks {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

// snapReader is a bounds-checked cursor over an encoded snapshot; the first
// out-of-bounds read latches the error so decode code can stay linear.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = ErrSnapshotCorrupt
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *snapReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *snapReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count and validates it against the bytes that
// remain, given a minimum encoded size per element — a fuzzer handing us a
// four-billion count must not provoke a four-billion-entry allocation.
func (r *snapReader) count(minElemSize int) int {
	n := r.u32()
	if r.err == nil && int64(n)*int64(minElemSize) > int64(len(r.b)-r.off) {
		r.err = ErrSnapshotCorrupt
		return 0
	}
	return int(n)
}

// asInt narrows a stored u64 counter back to int, rejecting values that
// cannot have come from Encode.
func (r *snapReader) asInt(v uint64) int {
	if v > math.MaxInt64/2 {
		r.err = ErrSnapshotCorrupt
		return 0
	}
	return int(v)
}

// DecodeSnapshot parses a canonical snapshot. The
// returned TLD and Tranco accumulators are merge-only: they carry counters
// but no population, so Add is a no-op on them — a resuming campaign
// merges the decoded snapshot into fresh accumulators built over its
// population instead.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapshotMagic)+2+4 {
		return nil, ErrSnapshotCorrupt
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrSnapshotCorrupt
	}
	if v := binary.BigEndian.Uint16(b[len(snapshotMagic):]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrSnapshotVersion, v, snapshotVersion)
	}
	framed, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(framed) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrSnapshotCorrupt)
	}
	zr, err := gzip.NewReader(bytes.NewReader(framed[len(snapshotMagic)+2:]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	body, err := io.ReadAll(io.LimitReader(zr, maxSnapshotBody+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if len(body) > maxSnapshotBody {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrSnapshotCorrupt, maxSnapshotBody)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return decodeSnapshotBody(body)
}

func decodeSnapshotBody(body []byte) (*Snapshot, error) {
	r := &snapReader{b: body}
	s := &Snapshot{
		Shard:  int(r.u32()),
		Shards: int(r.u32()),
		Agg:    NewAggregate(),
		TLD:    &TLDAggregate{rows: make(map[string]*TLDRatio)},
		Tranco: &TrancoAggregate{},
	}
	s.Size = r.u64()
	s.Position = r.u64()
	s.Queries = r.u64()
	s.Resolutions = r.u64()
	if r.err == nil && s.Position > s.Size {
		return nil, fmt.Errorf("%w: position %d past the shard's %d names", ErrSnapshotCorrupt, s.Position, s.Size)
	}
	if n := r.count(1); n > 0 && r.err == nil {
		// Bits stand for names Position+1 .. Size-1, so the set needs at
		// most that many bits.
		if past := s.Size - s.Position; past <= 1 || uint64(n) > (past-1+7)/8 {
			return nil, fmt.Errorf("%w: done set of %d bytes is longer than the shard", ErrSnapshotCorrupt, n)
		}
		s.Done = append([]byte(nil), r.take(n)...)
		last := s.Done[n-1]
		if last == 0 {
			return nil, fmt.Errorf("%w: done set ends in a zero byte", ErrSnapshotCorrupt)
		}
		if top := s.Position + 1 + uint64(8*(n-1)+bits.Len8(last)-1); top >= s.Size {
			return nil, fmt.Errorf("%w: done set marks name %d of a %d-name shard", ErrSnapshotCorrupt, top, s.Size)
		}
	}

	s.Agg.Total = r.asInt(r.u64())
	s.Agg.WithEDE = r.asInt(r.u64())
	s.Agg.NoErrorWithEDE = r.asInt(r.u64())
	for n := r.count(10); n > 0 && r.err == nil; n-- {
		c := r.u16()
		s.Agg.CodeCounts[c] = r.asInt(r.u64())
	}
	for n := r.count(10); n > 0 && r.err == nil; n-- {
		rc := dnswire.RCode(r.u16())
		s.Agg.RCodes[rc] = r.asInt(r.u64())
	}

	for n := r.count(2 + 1 + 16); n > 0 && r.err == nil; n-- {
		label := string(r.take(int(r.u16())))
		cc := r.take(1)
		row := &TLDRatio{TLD: label, CC: len(cc) == 1 && cc[0] != 0}
		row.Total = r.asInt(r.u64())
		row.WithEDE = r.asInt(r.u64())
		if r.err == nil {
			s.TLD.rows[label] = row
		}
	}

	s.Tranco.stats.ListSize = r.asInt(r.u64())
	s.Tranco.stats.Overlap = r.asInt(r.u64())
	s.Tranco.stats.NoError = r.asInt(r.u64())
	if n := r.count(4); n > 0 && r.err == nil {
		s.Tranco.stats.Ranks = make([]int, 0, n)
		for ; n > 0 && r.err == nil; n-- {
			s.Tranco.stats.Ranks = append(s.Tranco.stats.Ranks, int(r.u32()))
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(body)-r.off)
	}
	return s, nil
}
