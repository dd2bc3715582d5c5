package store

// Tests of the persistence codec surface: replay of text records that
// older builds wrote, and the snapshot index footer (zero-copy indexed
// reads, demotion to the sequential scan on any footer damage,
// per-record quarantine through the indexed path).

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"qcongest/internal/graph"
)

func snapshotFile(t *testing.T, dir string) string {
	t.Helper()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.qcs"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %v", snaps)
	}
	return snaps[0]
}

// TestStoreCodecMixedReplay opens testdata/textcodec, a data dir written
// by a build whose store still had a text record codec: a text snapshot
// of testGraphs[:3] plus a log of testGraphs[3:6] left by a crash. Under
// the binary-only writer every text record must replay, and a second
// crash must replay the text snapshot, the text log and the new binary
// log records together, because the payload bytes identify their own
// wire form.
func TestStoreCodecMixedReplay(t *testing.T) {
	dir := t.TempDir()
	fixture, _ := filepath.Glob(filepath.Join("testdata", "textcodec", "*"))
	for _, src := range fixture {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gs := testGraphs(t, 8)

	s, recovered, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	assertRecovered(t, recovered, gs[:6])
	for _, g := range gs[6:] {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	s2, recovered, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	defer s2.Close()
	assertRecovered(t, recovered, gs)
}

// TestSnapshotIndexFooter pins the footer layout end to end: a written
// snapshot carries a valid index that the reader resolves (and the
// binary payloads make the file dramatically smaller than text).
func TestSnapshotIndexFooter(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 5)
	s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapshotFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	index, recEnd, ok := snapIndex(data)
	if !ok {
		t.Fatal("written snapshot has no valid index footer")
	}
	if len(index) != len(gs)*snapIndexEntryLen {
		t.Fatalf("index holds %d entries, want %d", len(index)/snapIndexEntryLen, len(gs))
	}
	// Entries tile the record region exactly.
	var off uint64
	for i := 0; i < len(gs); i++ {
		e := index[i*snapIndexEntryLen:]
		if got := binary.LittleEndian.Uint64(e); got != off {
			t.Fatalf("entry %d offset %d, want %d", i, got, off)
		}
		off += uint64(binary.LittleEndian.Uint32(e[8:]))
	}
	if off != recEnd {
		t.Fatalf("entries cover %d bytes, record region is %d", off, recEnd)
	}
	// Every indexed record parses zero-copy and round-trips its graph.
	for i := 0; i < len(gs); i++ {
		e := index[i*snapIndexEntryLen:]
		ro := binary.LittleEndian.Uint64(e)
		rn := uint64(binary.LittleEndian.Uint32(e[8:]))
		_, kind, payload, err := parseFramedRecord(data[ro : ro+rn])
		if err != nil || kind != recGraph {
			t.Fatalf("record %d: (%s, %v)", i, kind, err)
		}
		digest, _, g, err := decodeGraphPayload(payload, 0, 0)
		if err != nil || digest != gs[i].Digest() || g.Digest() != digest {
			t.Fatalf("record %d decode: digest %016x err %v", i, digest, err)
		}
	}
}

// TestSnapshotFooterDamage corrupts the footer in every way that should
// demote the reader to the sequential scanner — which must still
// recover every intact record.
func TestSnapshotFooterDamage(t *testing.T) {
	seed := func(t *testing.T) (string, []*graph.Graph) {
		dir := t.TempDir()
		gs := testGraphs(t, 4)
		s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
		for _, g := range gs {
			if err := s.AppendGraph(g, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, gs
	}

	for _, tc := range []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"flipped magic", func(d []byte) []byte { d[len(d)-1] ^= 0x40; return d }},
		{"flipped index byte", func(d []byte) []byte {
			// Damages the index CRC: the reader must not trust any entry.
			idxOff := binary.LittleEndian.Uint64(d[len(d)-snapTrailerLen:])
			d[idxOff] ^= 0x40
			return d
		}},
		{"truncated trailer", func(d []byte) []byte { return d[:len(d)-8] }},
		{"stripped footer", func(d []byte) []byte {
			idxOff := binary.LittleEndian.Uint64(d[len(d)-snapTrailerLen:])
			return d[:idxOff] // a pre-PR 8 footer-less snapshot
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, gs := seed(t)
			path := snapshotFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s, recovered, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
			defer s.Close()
			assertRecovered(t, recovered, gs)
		})
	}
}

// TestSnapshotIndexedQuarantine flips one byte inside one record while
// the footer stays valid: the indexed reader must quarantine exactly
// that record and recover the rest — per-record containment, same as
// the scanner's.
func TestSnapshotIndexedQuarantine(t *testing.T) {
	dir := t.TempDir()
	gs := testGraphs(t, 4)
	s, _, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	for _, g := range gs {
		if err := s.AppendGraph(g, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := snapshotFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	index, _, ok := snapIndex(data)
	if !ok {
		t.Fatal("no index footer")
	}
	// Corrupt a payload byte of record 1 (past its header line).
	e := index[1*snapIndexEntryLen:]
	ro := binary.LittleEndian.Uint64(e)
	rec := data[ro : ro+uint64(binary.LittleEndian.Uint32(e[8:]))]
	hEnd := bytes.IndexByte(rec, '\n')
	rec[hEnd+5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, recovered, stats := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	defer s2.Close()
	assertRecovered(t, recovered, []*graph.Graph{gs[0], gs[2], gs[3]})
	if stats.Quarantined != 1 {
		t.Fatalf("quarantined %d records, want 1", stats.Quarantined)
	}
}
