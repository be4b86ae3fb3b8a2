package scan

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
)

// legacyBody is the v1 and v2 body: v3's without the size and the done set.
func legacyBody(s *Snapshot) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(s.Shard))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Shards))
	buf = binary.BigEndian.AppendUint64(buf, s.Position)
	buf = binary.BigEndian.AppendUint64(buf, s.Queries)
	buf = binary.BigEndian.AppendUint64(buf, s.Resolutions)
	return s.appendAggregates(buf)
}

// encodeLegacyV1 frames a snapshot in the retired uncompressed v1 format,
// which DecodeSnapshot no longer reads.
func encodeLegacyV1(s *Snapshot) []byte {
	buf := append([]byte(snapshotMagic), 0, 1)
	buf = append(buf, legacyBody(s)...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// encodeLegacyV2 frames a snapshot in the retired v2 format, v1 gzipped,
// which DecodeSnapshot no longer reads either.
func encodeLegacyV2(s *Snapshot) []byte {
	var zb bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&zb, gzip.BestCompression)
	zw.Write(legacyBody(s))
	zw.Close()
	buf := append([]byte(snapshotMagic), 0, 2)
	buf = append(buf, zb.Bytes()...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapPop builds a small population for the aggregates — no network
// materialization, just the registry.
func snapPop(t testing.TB) *population.Population {
	t.Helper()
	return population.Generate(population.Config{TotalDomains: 3030, Seed: 42})
}

// synthResults fabricates deterministic scan results over pop's domains:
// a repeating mixture of clean NOERROR, NOERROR-with-EDE, SERVFAIL-with-EDEs
// (including duplicate codes), and NXDOMAIN.
func synthResults(pop *population.Population) []Result {
	out := make([]Result, 0, len(pop.Domains))
	for i, d := range pop.Domains {
		r := Result{Domain: d.Name, RCode: dnswire.RCodeNoError}
		switch i % 5 {
		case 1:
			r.Codes = []uint16{22}
			r.ExtraTexts = []string{""}
			r.RCode = dnswire.RCodeServFail
		case 2:
			r.Codes = []uint16{9, 10, 9} // duplicate on purpose
			r.ExtraTexts = []string{"", "", ""}
			r.RCode = dnswire.RCodeServFail
		case 3:
			r.Codes = []uint16{3}
			r.ExtraTexts = []string{""}
		case 4:
			r.RCode = dnswire.RCodeNXDomain
		}
		out = append(out, r)
	}
	return out
}

// snapOver folds results into a fresh snapshot over pop.
func snapOver(pop *population.Population, results []Result) *Snapshot {
	s := &Snapshot{
		Agg:    NewAggregate(),
		TLD:    NewTLDAggregate(pop),
		Tranco: NewTrancoAggregate(pop),
	}
	for _, r := range results {
		s.Agg.Add(r)
		s.TLD.Add(r)
		s.Tranco.Add(r)
	}
	s.Size = uint64(len(results))
	s.Position = s.Size
	return s
}

func TestSnapshotMergeCommutative(t *testing.T) {
	pop := snapPop(t)
	results := synthResults(pop)
	a1, b1 := snapOver(pop, results[:1000]), snapOver(pop, results[1000:])
	a2, b2 := snapOver(pop, results[:1000]), snapOver(pop, results[1000:])

	a1.Merge(b1) // A+B
	b2.Merge(a2) // B+A
	if !bytes.Equal(a1.AggregateBytes(), b2.AggregateBytes()) {
		t.Fatal("merge is not commutative: A+B and B+A encode differently")
	}
	whole := snapOver(pop, results)
	if !bytes.Equal(a1.AggregateBytes(), whole.AggregateBytes()) {
		t.Fatal("merged halves do not equal the directly folded whole")
	}
}

func TestSnapshotMergeAssociative(t *testing.T) {
	pop := snapPop(t)
	results := synthResults(pop)
	chunk := func(i int) []Result {
		switch i {
		case 0:
			return results[:700]
		case 1:
			return results[700:2000]
		default:
			return results[2000:]
		}
	}

	// (A+B)+C
	left := snapOver(pop, chunk(0))
	left.Merge(snapOver(pop, chunk(1)))
	left.Merge(snapOver(pop, chunk(2)))
	// A+(B+C)
	bc := snapOver(pop, chunk(1))
	bc.Merge(snapOver(pop, chunk(2)))
	right := snapOver(pop, chunk(0))
	right.Merge(bc)

	if !bytes.Equal(left.AggregateBytes(), right.AggregateBytes()) {
		t.Fatal("merge is not associative: (A+B)+C and A+(B+C) encode differently")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	pop := snapPop(t)
	results := synthResults(pop)
	orig := snapOver(pop, results[:2222])
	orig.Shard, orig.Shards = 3, 8
	orig.Queries, orig.Resolutions = 123456, 2222

	enc := orig.Encode()
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Shard != 3 || dec.Shards != 8 || dec.Position != 2222 ||
		dec.Queries != 123456 || dec.Resolutions != 2222 {
		t.Fatalf("meta mismatch: %+v", dec)
	}
	// Re-encoding a decoded snapshot must be a byte-level fixed point: the
	// canonical form does not depend on whether the accumulators came from
	// a population or from the wire.
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("encode(decode(x)) != x")
	}

	// Merging the decoded snapshot into fresh population-built accumulators
	// must equal merging the original directly (the resume path).
	viaDecode := snapOver(pop, nil)
	viaDecode.Merge(dec)
	direct := snapOver(pop, nil)
	direct.Merge(orig)
	if !bytes.Equal(viaDecode.AggregateBytes(), direct.AggregateBytes()) {
		t.Fatal("merge-after-decode differs from direct merge")
	}
}

func TestSnapshotCanonicalUnderInsertionOrder(t *testing.T) {
	pop := snapPop(t)
	results := synthResults(pop)
	fwd := snapOver(pop, results)
	rev := &Snapshot{Agg: NewAggregate(), TLD: NewTLDAggregate(pop), Tranco: NewTrancoAggregate(pop)}
	for i := len(results) - 1; i >= 0; i-- {
		rev.Agg.Add(results[i])
		rev.TLD.Add(results[i])
		rev.Tranco.Add(results[i])
	}
	rev.Size = uint64(len(results))
	rev.Position = rev.Size
	if !bytes.Equal(fwd.AggregateBytes(), rev.AggregateBytes()) {
		t.Fatal("canonical encoding depends on fold order")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	pop := snapPop(t)
	enc := snapOver(pop, synthResults(pop)).Encode()

	if _, err := DecodeSnapshot(nil); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("nil input: got %v", err)
	}
	for _, cut := range []int{1, 4, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for _, flip := range []int{0, 7, len(enc) / 2, len(enc) - 2} {
		bad := append([]byte(nil), enc...)
		bad[flip] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", flip)
		}
	}

	// Wrong version: the version gate fires before the CRC is checked.
	vbad := append([]byte(nil), enc...)
	vbad[4], vbad[5] = 0x7f, 0xff
	if _, err := DecodeSnapshot(vbad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: got %v", err)
	}
}

func TestSnapshotV3IsCompressed(t *testing.T) {
	pop := snapPop(t)
	snap := snapOver(pop, synthResults(pop))
	enc := snap.Encode()
	if v := binary.BigEndian.Uint16(enc[4:6]); v != 3 {
		t.Fatalf("version = %d, want 3", v)
	}
	if enc[6] != 0x1f || enc[7] != 0x8b {
		t.Fatalf("body does not start with the gzip magic: % x", enc[6:8])
	}
	if v1 := encodeLegacyV1(snap); len(enc) >= len(v1) {
		t.Fatalf("v3 (%d bytes) is not smaller than v1 (%d bytes)", len(enc), len(v1))
	}
}

// TestSnapshotLegacyVersionsRejected: the decoder accepts exactly one
// version. A v1 (uncompressed) or v2 (no size, no done set) checkpoint —
// whole, truncated or bit-flipped — is refused, and a whole one is refused
// by name rather than misread as a corrupt v3.
func TestSnapshotLegacyVersionsRejected(t *testing.T) {
	pop := snapPop(t)
	orig := snapOver(pop, synthResults(pop)[:2222])
	orig.Shard, orig.Shards = 3, 8
	orig.Queries, orig.Resolutions = 123456, 2222

	for v, old := range map[int][]byte{1: encodeLegacyV1(orig), 2: encodeLegacyV2(orig)} {
		if _, err := DecodeSnapshot(old); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("legacy v%d snapshot: err = %v, want ErrSnapshotVersion", v, err)
		}
		if _, err := DecodeSnapshot(old[:len(old)/2]); err == nil {
			t.Fatalf("truncated legacy v%d snapshot decoded successfully", v)
		}
		flip := append([]byte(nil), old...)
		flip[len(flip)/2] ^= 0x40
		if _, err := DecodeSnapshot(flip); err == nil {
			t.Fatalf("corrupted legacy v%d snapshot decoded successfully", v)
		}
	}
}

// partial is snapOver's snapshot of a shard whose first names are folded
// except the ones in missing, as a campaign folding in completion order
// leaves it: the frontier at the first missing name, the rest of the folded
// names in the done set.
func partial(pop *population.Population, results []Result, missing ...int) *Snapshot {
	skip := make(map[int]bool)
	for _, i := range missing {
		skip[i] = true
	}
	var folded []Result
	for i, r := range results {
		if !skip[i] {
			folded = append(folded, r)
		}
	}
	s := snapOver(pop, folded)
	s.Size = uint64(len(pop.Domains))
	for s.Position = 0; !skip[int(s.Position)]; s.Position++ {
	}
	s.Done = nil
	for i := range results {
		if b := i - int(s.Position) - 1; b >= 0 && !skip[i] {
			for len(s.Done) <= b/8 {
				s.Done = append(s.Done, 0)
			}
			s.Done[b/8] |= 1 << (b % 8)
		}
	}
	return s
}

// TestSnapshotDoneSetRoundTrip: a checkpoint taken while an early name is
// still resolving names its frontier, every name folded past it, and no
// other, and it survives the wire.
func TestSnapshotDoneSetRoundTrip(t *testing.T) {
	pop := snapPop(t)
	results := synthResults(pop)[:1500]
	orig := partial(pop, results, 17, 30, 31, 700)
	orig.Shard, orig.Shards = 1, 2
	if orig.Position != 17 || orig.FoldedCount() != 1496 {
		t.Fatalf("frontier %d with %d folded, want 17 with 1496", orig.Position, orig.FoldedCount())
	}
	enc := orig.Encode()
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Size != orig.Size || dec.Position != 17 || !bytes.Equal(dec.Done, orig.Done) {
		t.Fatalf("header mismatch: size %d position %d done % x", dec.Size, dec.Position, dec.Done)
	}
	for i := uint64(0); i < dec.Size; i++ {
		want := i < 1500 && i != 17 && i != 30 && i != 31 && i != 700
		if dec.Folded(i) != want {
			t.Fatalf("Folded(%d) = %v, want %v", i, dec.Folded(i), want)
		}
	}
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("encode(decode(x)) != x")
	}
	// The done set is bookkeeping: the aggregates are those of the same
	// names folded in any order.
	if !bytes.Equal(dec.AggregateBytes(), orig.AggregateBytes()) {
		t.Fatal("aggregate payload changed on the wire")
	}
}

// TestSnapshotRejectsHostileDoneSets: a done set that marks a name past the
// shard's end, is longer than the shard, ends in a zero byte, or sits
// behind a frontier past the shard's end is corrupt.
func TestSnapshotRejectsHostileDoneSets(t *testing.T) {
	pop := snapPop(t)
	base := partial(pop, synthResults(pop), 5)
	n := base.Size
	for _, tc := range []struct {
		why      string
		position uint64
		done     []byte
	}{
		{"bit past the shard's end", n - 8, []byte{0x80}},
		{"bit past the shard's end in a longer set", n - 20, []byte{1, 0, 0x10}},
		{"set longer than the shard", n - 2, []byte{1, 1}},
		{"set at a finished frontier", n, []byte{1}},
		{"set far longer than the shard", 0, bytes.Repeat([]byte{0xff}, int(n/8)+2)},
		{"trailing zero byte", 5, []byte{1, 0}},
		{"frontier past the shard's end", n + 1, nil},
	} {
		s := *base
		s.Position, s.Done = tc.position, tc.done
		if _, err := DecodeSnapshot(s.Encode()); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", tc.why, err)
		}
	}
	// The last name of the shard is a legal member.
	s := *base
	s.Position, s.Done = n-9, []byte{0x80}
	if _, err := DecodeSnapshot(s.Encode()); err != nil {
		t.Fatalf("done set ending at the shard's last name: %v", err)
	}
}

// TestSnapshotMergeFoldsDoneSets: merged shards have no frontier of their
// own; the merge counts every name its parts folded.
func TestSnapshotMergeFoldsDoneSets(t *testing.T) {
	pop := snapPop(t)
	a := partial(pop, synthResults(pop), 3, 9)
	b := snapOver(pop, synthResults(pop)[:100])
	want := a.FoldedCount() + b.FoldedCount()
	a.Merge(b)
	if a.Position != want || len(a.Done) != 0 || a.Size != uint64(len(pop.Domains))+100 {
		t.Fatalf("merged position %d done % x size %d, want %d, none, %d", a.Position, a.Done, a.Size, want, len(pop.Domains)+100)
	}
}

// TestSnapshotDecompressionCap rejects a checkpoint whose gzip body inflates
// past maxSnapshotBody instead of allocating it.
func TestSnapshotDecompressionCap(t *testing.T) {
	var zb bytes.Buffer
	zw := gzip.NewWriter(&zb)
	zeros := make([]byte, 1<<20)
	for written := 0; written <= maxSnapshotBody; written += len(zeros) {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bomb := make([]byte, 0, zb.Len()+10)
	bomb = append(bomb, snapshotMagic...)
	bomb = binary.BigEndian.AppendUint16(bomb, snapshotVersion)
	bomb = append(bomb, zb.Bytes()...)
	bomb = binary.BigEndian.AppendUint32(bomb, crc32.ChecksumIEEE(bomb))
	if _, err := DecodeSnapshot(bomb); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("oversized body: got %v, want ErrSnapshotCorrupt", err)
	}
}
