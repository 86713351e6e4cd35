package journal

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Segment header layout:
//
//	magic "RTJS" | u32 version | u64 baseSeq | prevHash[32]
//
// Segments are created via temp-file+rename with the header already
// synced, so a *.seg file either carries a complete header or does not
// exist; a short or mangled header is therefore evidence damage, never
// a benign crash artifact.
const (
	segmentHeaderSize = 4 + 4 + 8 + 32
	segmentVersion    = 1
)

var segmentMagic = []byte("RTJS")

// manifestName is the sealed-segment index, written atomically after
// every rotation. It lists only the first and the last sealed segment,
// so its size does not grow with the journal; a manifest listing every
// sealed segment (the earlier format) loads the same way. It is
// advisory for chain validation (segments self-describe) but
// load-bearing for deletion detection: a listed segment missing on disk
// is a chain break, not a fresh journal, and a segment deleted between
// the two ends breaks the chain at the next segment's header.
const manifestName = "MANIFEST"

func segmentName(base uint64) string { return fmt.Sprintf("journal-%016x.seg", base) }

// parseSegmentName extracts the base sequence from a segment filename.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".seg")
	if len(hexPart) != 16 {
		return 0, false
	}
	var base uint64
	if _, err := fmt.Sscanf(hexPart, "%016x", &base); err != nil {
		return 0, false
	}
	return base, true
}

func encodeSegmentHeader(baseSeq uint64, prevHash [32]byte) []byte {
	b := make([]byte, 0, segmentHeaderSize)
	b = append(b, segmentMagic...)
	b = binary.LittleEndian.AppendUint32(b, segmentVersion)
	b = binary.LittleEndian.AppendUint64(b, baseSeq)
	b = append(b, prevHash[:]...)
	return b
}

func parseSegmentHeader(data []byte) (baseSeq uint64, prevHash [32]byte, err error) {
	if len(data) < segmentHeaderSize {
		return 0, prevHash, fmt.Errorf("%w: %d-byte segment header", ErrBadRecord, len(data))
	}
	if string(data[:4]) != string(segmentMagic) {
		return 0, prevHash, fmt.Errorf("%w: bad segment magic", ErrBadRecord)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != segmentVersion {
		return 0, prevHash, fmt.Errorf("%w: segment version %d (want %d)", ErrBadRecord, v, segmentVersion)
	}
	baseSeq = binary.LittleEndian.Uint64(data[8:])
	copy(prevHash[:], data[16:segmentHeaderSize])
	return baseSeq, prevHash, nil
}

// manifest is the JSON sealed-segment index.
type manifest struct {
	Sealed []manifestSegment `json:"sealed"`
}

type manifestSegment struct {
	Name    string `json:"name"`
	BaseSeq uint64 `json:"base_seq"`
	LastSeq uint64 `json:"last_seq"`
	Head    string `json:"head"` // hex hash of the last record
}

func loadManifest(fsys FS, dir string) manifest {
	var m manifest
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}
	}
	if json.Unmarshal(data, &m) != nil {
		// A corrupt manifest is rebuilt from the segments themselves;
		// it indexes the chain, it is not part of it.
		return manifest{}
	}
	return m
}

func writeManifest(fsys FS, dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(fsys, filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

// ChainError pinpoints a broken hash chain: the exact segment, byte
// offset and expected sequence where validation failed. Recovery never
// silently skips past one — policy decides between refusing to open and
// quarantining the damaged suffix.
type ChainError struct {
	Segment string // segment filename
	Offset  int64  // byte offset of the offending frame
	Seq     uint64 // expected sequence at that point
	Reason  string
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("journal: broken chain in %s at offset %d (seq %d): %s",
		e.Segment, e.Offset, e.Seq, e.Reason)
}

// segInfo is one scanned segment.
type segInfo struct {
	name    string
	base    uint64
	size    int64
	lastSeq uint64
	head    [32]byte
	records int
}

// TornTail describes a truncatable interrupted append at the journal
// tail: everything from Offset on in the final segment is a partial
// record that was never acknowledged durable.
type TornTail struct {
	Segment string
	Offset  int64
}

// scanResult is the outcome of one full-chain validation pass.
type scanResult struct {
	records  []Record  // validated prefix, in order
	segments []segInfo // fully validated segments (final may be partial)
	nextSeq  uint64    // sequence the next append gets
	head     [32]byte  // hash of the last validated record
	torn     *TornTail // non-nil: final-segment tail to truncate
	// breakErr is non-nil when the chain is damaged beyond a torn tail;
	// breakIdx is the index into names of the offending segment.
	breakErr *ChainError
	breakIdx int
	names    []string // all segment files on disk, in base order
}

// scan validates the whole journal chain under dir. IO errors are
// returned directly; chain damage is reported in the result so the
// caller can apply policy (refuse, quarantine, truncate).
func scan(fsys FS, dir string) (scanResult, error) {
	res := scanResult{breakIdx: -1}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return res, fmt.Errorf("journal: reading %s: %w", dir, err)
	}
	type seg struct {
		name string
		base uint64
	}
	var segs []seg
	for _, e := range entries {
		if base, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, seg{e.Name(), base})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for _, s := range segs {
		res.names = append(res.names, s.name)
	}

	// Deletion detection: every sealed segment the manifest knows must
	// still be present.
	man := loadManifest(fsys, dir)
	onDisk := make(map[string]bool, len(segs))
	for _, s := range segs {
		onDisk[s.name] = true
	}
	for _, ms := range man.Sealed {
		if !onDisk[ms.Name] {
			res.breakErr = &ChainError{Segment: ms.Name, Seq: ms.BaseSeq,
				Reason: "sealed segment listed in manifest is missing"}
			res.breakIdx = 0
			return res, nil
		}
	}

	if len(segs) == 0 {
		res.nextSeq = 1
		return res, nil
	}

	var head [32]byte
	nextSeq := uint64(0) // 0: adopt the first segment's base as the anchor
	for i, s := range segs {
		final := i == len(segs)-1
		data, err := fsys.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			return res, fmt.Errorf("journal: reading %s: %w", s.name, err)
		}
		fail := func(off int64, seq uint64, reason string) {
			res.breakErr = &ChainError{Segment: s.name, Offset: off, Seq: seq, Reason: reason}
			res.breakIdx = i
		}
		base, prev, err := parseSegmentHeader(data)
		if err != nil {
			fail(0, nextSeq, err.Error())
			return res, nil
		}
		if base != s.base {
			fail(0, nextSeq, fmt.Sprintf("header base seq %d does not match filename", base))
			return res, nil
		}
		if nextSeq == 0 {
			// Chain anchor: the first segment on disk (earlier history
			// may have been quarantined; the manifest check above
			// already ruled out silent deletion of sealed segments).
			nextSeq = base
			head = prev
		}
		if base != nextSeq || prev != head {
			fail(0, nextSeq, "segment header does not continue the chain")
			return res, nil
		}
		info := segInfo{name: s.name, base: base, size: int64(len(data))}
		off := segmentHeaderSize
		for off < len(data) {
			rec, next, state, perr := parseFrame(data, off)
			switch state {
			case frameComplete:
				if rec.Seq != nextSeq {
					fail(int64(off), nextSeq, fmt.Sprintf("record seq %d, want %d", rec.Seq, nextSeq))
					return res, nil
				}
				if rec.PrevHash != head {
					fail(int64(off), nextSeq, "record does not chain to its predecessor")
					return res, nil
				}
				head = rec.Hash
				nextSeq++
				info.lastSeq = rec.Seq
				info.head = rec.Hash
				info.records++
				res.records = append(res.records, rec)
				off = next
			case frameTorn:
				// An interrupted append only ever damages the tail of
				// the final segment. Anywhere else — or with valid
				// records still parseable beyond the damage — this is
				// corruption, not a crash artifact.
				if final && !validFrameBeyond(data, off+1, nextSeq) {
					res.torn = &TornTail{Segment: s.name, Offset: int64(off)}
					off = len(data)
					break
				}
				fail(int64(off), nextSeq, perr.Error())
				return res, nil
			case frameCorrupt:
				fail(int64(off), nextSeq, perr.Error())
				return res, nil
			}
		}
		res.segments = append(res.segments, info)
	}
	res.nextSeq = nextSeq
	res.head = head
	return res, nil
}

// validFrameBeyond reports whether any CRC-valid frame with a plausible
// sequence number starts at or after off — the disambiguator between a
// torn tail (garbage to EOF, safe to truncate) and damage in the middle
// of surviving records (a chain break that must be surfaced, never
// silently dropped).
func validFrameBeyond(data []byte, off int, expectSeq uint64) bool {
	const maxScan = 4 << 20
	end := len(data)
	if end-off > maxScan {
		end = off + maxScan
	}
	for c := off; c+frameHeaderSize+recordBodyMin <= end; c++ {
		rec, _, state, _ := parseFrame(data, c)
		if state != frameComplete {
			continue
		}
		if rec.Seq >= expectSeq && rec.Seq < expectSeq+1<<20 {
			return true
		}
	}
	return false
}

func hashHex(h [32]byte) string { return hex.EncodeToString(h[:]) }
