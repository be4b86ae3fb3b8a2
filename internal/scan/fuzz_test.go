package scan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/population"
)

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecodeSnapshot when SNAPSHOT_FUZZ_CORPUS=1 is set (a
// plain `go test` leaves the committed files alone). The corpus mirrors the
// f.Add seeds so `go test -run Fuzz` in CI exercises them as unit cases even
// where the fuzz engine is unavailable.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SNAPSHOT_FUZZ_CORPUS") != "1" {
		t.Skip("set SNAPSHOT_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 42})
	valid := snapOver(pop, synthResults(pop))
	valid.Shard, valid.Shards = 1, 4
	enc := valid.Encode()
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0xff
	empty := (&Snapshot{
		Agg:    NewAggregate(),
		TLD:    &TLDAggregate{rows: map[string]*TLDRatio{}},
		Tranco: &TrancoAggregate{},
	}).Encode()
	legacy := encodeLegacyV1(valid)
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// enc[:len/2] cuts mid-gzip-stream: the compressed+truncated case.
	for i, seed := range [][]byte{enc, enc[:len(enc)/2], []byte("EDES"), flipped, empty, legacy, legacy[:len(legacy)/2]} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeSnapshot hammers the checkpoint decoder with arbitrary bytes:
// it must never panic or over-allocate, anything it accepts must carry the
// one version it reads — the retired v1 seeds below and in the committed
// corpus are must-reject inputs — and must be a canonical fixed point
// (decode → encode → decode reproduces itself).
func FuzzDecodeSnapshot(f *testing.F) {
	pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 42})
	valid := snapOver(pop, synthResults(pop))
	valid.Shard, valid.Shards = 1, 4
	valid.Queries, valid.Resolutions = 9999, 3030
	enc := valid.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // truncated mid-gzip-stream
	f.Add([]byte("EDES"))
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	empty := (&Snapshot{
		Agg:    NewAggregate(),
		TLD:    &TLDAggregate{rows: map[string]*TLDRatio{}},
		Tranco: &TrancoAggregate{},
	}).Encode()
	f.Add(empty)
	legacy := encodeLegacyV1(valid)
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		if v := binary.BigEndian.Uint16(b[len(snapshotMagic):]); v != snapshotVersion {
			t.Fatalf("accepted a snapshot of version %d", v)
		}
		re := s.Encode()
		s2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(re, s2.Encode()) {
			t.Fatal("accepted snapshot is not a canonical fixed point")
		}
	})
}
