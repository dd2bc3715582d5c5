package store

// Record payload codecs and the snapshot reader. A graph payload is one
// JSON metadata line (digest + optional generator spec) followed by the
// wire form of the graph. Writers emit graph.FormatBinary only; replay
// also reads the versioned text edge list that older builds wrote, and
// the leading bytes disambiguate, so a store can carry a mix. The snapshot file
// is the framed graph records of every resident graph in registration
// order — the same framing as the log, so one scanner serves both —
// followed by an index footer that lets replay seek straight to each
// record and slice payloads zero-copy out of the read buffer instead of
// re-scanning and re-copying the file record by record. The footer is
// strictly optional: a footer-less (pre-PR 8) or corrupt-footer
// snapshot falls back to the sequential scan. Published atomically and
// blessed by the manifest either way.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"qcongest/internal/graph"
)

// graphMeta is the JSON head line of a graph record payload.
type graphMeta struct {
	Digest string          `json:"digest"`
	Gen    json.RawMessage `json:"gen,omitempty"`
}

// touchMeta is a touch record payload: a query recency hint.
type touchMeta struct {
	Digest string        `json:"digest"`
	Sketch *SketchParams `json:"sketch,omitempty"`
}

// encodeGraphPayload renders one graph record payload. The digest is
// stored explicitly (not just recomputed) so replay can distinguish
// "payload corrupted" from "graph legitimately changed encoding".
func encodeGraphPayload(digest uint64, gen json.RawMessage, g *graph.Graph) ([]byte, error) {
	meta, err := json.Marshal(graphMeta{Digest: formatDigest(digest), Gen: gen})
	if err != nil {
		return nil, fmt.Errorf("store: encoding graph meta: %w", err)
	}
	wire := graph.FormatBinary(g)
	payload := make([]byte, 0, len(meta)+1+len(wire))
	payload = append(payload, meta...)
	payload = append(payload, '\n')
	payload = append(payload, wire...)
	return payload, nil
}

// decodeGraphPayload parses a graph record payload and verifies the
// recovered graph's recomputed digest against the stored one — the
// replay-time integrity check the manifest rationale in DESIGN.md §9
// hangs on. maxNodes/maxEdges bound the parse before allocation
// (0 = unbounded).
func decodeGraphPayload(payload []byte, maxNodes, maxEdges int) (digest uint64, gen json.RawMessage, g *graph.Graph, err error) {
	head, rest, ok := bytes.Cut(payload, []byte{'\n'})
	if !ok {
		return 0, nil, nil, fmt.Errorf("store: graph payload missing meta line")
	}
	var meta graphMeta
	if err := json.Unmarshal(head, &meta); err != nil {
		return 0, nil, nil, fmt.Errorf("store: graph payload meta: %w", err)
	}
	digest, err = parseDigest(meta.Digest)
	if err != nil {
		return 0, nil, nil, err
	}
	// The wire form identifies itself: the binary codec's magic starts
	// with a non-ASCII byte no text edge list can begin with, so text
	// records written by older builds replay next to binary ones.
	if graph.IsBinary(rest) {
		g, err = graph.ParseBinaryLimits(rest, maxNodes, maxEdges)
	} else {
		g, err = graph.ParseEdgeListLimits(rest, maxNodes, maxEdges)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	if got := g.Digest(); got != digest {
		return 0, nil, nil, fmt.Errorf("store: graph digest %s recovered as %s", meta.Digest, formatDigest(got))
	}
	return digest, meta.Gen, g, nil
}

// encodeTouchPayload renders one touch record payload.
func encodeTouchPayload(digest uint64, sk *SketchParams) ([]byte, error) {
	return json.Marshal(touchMeta{Digest: formatDigest(digest), Sketch: sk})
}

// decodeTouchPayload parses a touch record payload.
func decodeTouchPayload(payload []byte) (digest uint64, sk *SketchParams, err error) {
	var meta touchMeta
	if err := json.Unmarshal(payload, &meta); err != nil {
		return 0, nil, fmt.Errorf("store: touch payload: %w", err)
	}
	digest, err = parseDigest(meta.Digest)
	if err != nil {
		return 0, nil, err
	}
	return digest, meta.Sketch, nil
}

// The snapshot index footer. After the framed records the file carries
//
//	index section: per record, uint64 LE offset + uint32 LE length
//	               (the framed record's full on-disk footprint)
//	trailer (24 bytes):
//	  uint64 LE  index section offset
//	  uint32 LE  record count
//	  uint32 LE  CRC32 (IEEE) of the index section
//	  8 bytes    magic "QCSIDX01"
//
// Replay validates the trailer and index checksum, then slices each
// record (and its payload) straight out of the one read buffer —
// zero-copy per record, no re-scan. Anything wrong with the footer
// demotes the file to the sequential scanner, which reads the index
// section as a torn tail and salvages every intact record before it.
const (
	snapIndexEntryLen = 12
	snapTrailerLen    = 24
)

var snapIndexMagic = [8]byte{'Q', 'C', 'S', 'I', 'D', 'X', '0', '1'}

// encodeSnapshot renders the snapshot file body: every graph as a
// framed record carrying its original append sequence (folding must not
// erase the replication cursor identity — a replica resuming below
// SnapshotSeq is served snapshot records re-framed at their true seqs),
// then the index footer. Replay still compares log records against the
// manifest's SnapshotSeq, not the per-record seqs.
func encodeSnapshot(recs []*graphRec) ([]byte, error) {
	var buf bytes.Buffer
	index := make([]byte, 0, len(recs)*snapIndexEntryLen)
	for _, r := range recs {
		payload, err := encodeGraphPayload(r.digest, r.gen, r.g)
		if err != nil {
			return nil, err
		}
		off := int64(buf.Len())
		n, err := appendRecord(&buf, r.seq, recGraph, payload)
		if err != nil {
			return nil, err
		}
		index = binary.LittleEndian.AppendUint64(index, uint64(off))
		index = binary.LittleEndian.AppendUint32(index, uint32(n))
	}
	indexOff := uint64(buf.Len())
	buf.Write(index)
	var trailer [snapTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:], indexOff)
	binary.LittleEndian.PutUint32(trailer[8:], uint32(len(recs)))
	binary.LittleEndian.PutUint32(trailer[12:], crc32.ChecksumIEEE(index))
	copy(trailer[16:], snapIndexMagic[:])
	buf.Write(trailer[:])
	return buf.Bytes(), nil
}

// snapIndex parses and validates the index footer, returning the index
// section and the end of the record region. ok is false for footer-less
// or corrupt-footer files — the caller falls back to the scanner.
func snapIndex(data []byte) (index []byte, recEnd uint64, ok bool) {
	if len(data) < snapTrailerLen {
		return nil, 0, false
	}
	trailer := data[len(data)-snapTrailerLen:]
	if !bytes.Equal(trailer[16:], snapIndexMagic[:]) {
		return nil, 0, false
	}
	indexOff := binary.LittleEndian.Uint64(trailer[0:])
	count := binary.LittleEndian.Uint32(trailer[8:])
	end := uint64(len(data) - snapTrailerLen)
	if indexOff > end || end-indexOff != uint64(count)*snapIndexEntryLen {
		return nil, 0, false
	}
	index = data[indexOff:end]
	if crc32.ChecksumIEEE(index) != binary.LittleEndian.Uint32(trailer[12:]) {
		return nil, 0, false
	}
	return index, indexOff, true
}

// readSnapshot loads the snapshot file named by the manifest, returning
// the surviving graph records keyed by digest alongside per-record
// failures (quarantined by the caller). A snapshot that cannot be read
// at all is reported as one failure; recovery then proceeds from the
// log alone rather than refusing to boot.
func readSnapshot(path string, maxNodes, maxEdges int) (recs []*graphRec, failures []recFailure) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, []recFailure{{name: "snapshot", err: err}}
	}
	if index, recEnd, ok := snapIndex(data); ok {
		quarantine := func(i int, err error, raw []byte) {
			failures = append(failures, recFailure{name: fmt.Sprintf("snapshot-rec-%d", i), err: err, raw: raw})
		}
		for i := 0; i*snapIndexEntryLen < len(index); i++ {
			e := index[i*snapIndexEntryLen:]
			off := binary.LittleEndian.Uint64(e)
			n := uint64(binary.LittleEndian.Uint32(e[8:]))
			if off > recEnd || recEnd-off < n {
				quarantine(i, fmt.Errorf("store: snapshot index entry %d out of bounds", i), nil)
				continue
			}
			seq, kind, payload, err := parseFramedRecord(data[off : off+n])
			if err != nil {
				quarantine(i, err, data[off:off+n])
				continue
			}
			if kind != recGraph {
				quarantine(i, fmt.Errorf("store: unexpected %s record in snapshot", kind), payload)
				continue
			}
			digest, gen, g, err := decodeGraphPayload(payload, maxNodes, maxEdges)
			if err != nil {
				quarantine(i, err, payload)
				continue
			}
			recs = append(recs, &graphRec{g: g, digest: digest, gen: gen, seq: seq})
		}
		return recs, failures
	}
	// Footer-less (pre-PR 8) or corrupt-footer snapshot: sequential
	// scan, which copies each payload but reads everything salvageable.
	res, scanErr := scanRecords(bytes.NewReader(data), func(seq uint64, kind string, payload []byte) error {
		if kind != recGraph {
			failures = append(failures, recFailure{name: fmt.Sprintf("snapshot-rec-%d", seq), err: fmt.Errorf("store: unexpected %s record in snapshot", kind), raw: payload})
			return nil
		}
		digest, gen, g, err := decodeGraphPayload(payload, maxNodes, maxEdges)
		if err != nil {
			failures = append(failures, recFailure{name: fmt.Sprintf("snapshot-rec-%d", seq), err: err, raw: payload})
			return nil
		}
		recs = append(recs, &graphRec{g: g, digest: digest, gen: gen, seq: seq})
		return nil
	})
	if scanErr != nil {
		failures = append(failures, recFailure{name: "snapshot", err: scanErr})
	}
	if res.torn {
		// Snapshots are published atomically, so a torn snapshot means
		// post-publication corruption (or a scan demoted by a bad
		// footer); salvage the intact prefix.
		failures = append(failures, recFailure{name: "snapshot-tail", err: res.tornErr})
	}
	return recs, failures
}

// recFailure is one quarantinable replay casualty.
type recFailure struct {
	name string
	err  error
	raw  []byte
}
