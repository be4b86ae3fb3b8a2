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

// encodeLegacyV1 frames a snapshot in the retired uncompressed v1 format,
// which DecodeSnapshot no longer reads.
func encodeLegacyV1(s *Snapshot) []byte {
	buf := make([]byte, 0, 1024)
	buf = append(buf, snapshotMagic...)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = s.appendBody(buf)
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
	s.Position = uint64(len(results))
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
	rev.Position = uint64(len(results))
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

func TestSnapshotV2IsCompressed(t *testing.T) {
	pop := snapPop(t)
	snap := snapOver(pop, synthResults(pop))
	enc := snap.Encode()
	if v := binary.BigEndian.Uint16(enc[4:6]); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	if enc[6] != 0x1f || enc[7] != 0x8b {
		t.Fatalf("body does not start with the gzip magic: % x", enc[6:8])
	}
	if v1 := encodeLegacyV1(snap); len(enc) >= len(v1) {
		t.Fatalf("v2 (%d bytes) is not smaller than v1 (%d bytes)", len(enc), len(v1))
	}
}

// TestSnapshotLegacyV1Rejected: the decoder accepts exactly one version. An
// uncompressed v1 checkpoint — whole, truncated or bit-flipped — is refused,
// and a whole one is refused by name rather than misread as a corrupt v2.
func TestSnapshotLegacyV1Rejected(t *testing.T) {
	pop := snapPop(t)
	orig := snapOver(pop, synthResults(pop)[:2222])
	orig.Shard, orig.Shards = 3, 8
	orig.Queries, orig.Resolutions = 123456, 2222

	v1 := encodeLegacyV1(orig)
	if _, err := DecodeSnapshot(v1); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("legacy v1 snapshot: err = %v, want ErrSnapshotVersion", err)
	}
	if _, err := DecodeSnapshot(v1[:len(v1)/2]); err == nil {
		t.Fatal("truncated legacy snapshot decoded successfully")
	}
	flip := append([]byte(nil), v1...)
	flip[len(flip)/2] ^= 0x40
	if _, err := DecodeSnapshot(flip); err == nil {
		t.Fatal("corrupted legacy snapshot decoded successfully")
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
