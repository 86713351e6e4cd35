package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/linker"
	"raptrack/internal/mem"
	"raptrack/internal/periph"
	"raptrack/internal/remote"
	"raptrack/internal/speccfa"
)

// appSpec is one application as both sides know it: the golden link
// artifact and the device key. The gateway links its own copy; the load
// generator links one to run provers.
type appSpec struct {
	name string
	app  apps.App
	link *linker.Output
	key  *attest.HMACKey
}

// loadSpecs links the named apps and derives their keys from seed, so a
// seed fixes every byte the generator sends apart from the gateway's
// fresh nonces.
func loadSpecs(names []string, seed uint64) (map[string]*appSpec, error) {
	out := make(map[string]*appSpec, len(names))
	for _, name := range names {
		a, err := apps.Get(name)
		if err != nil {
			return nil, err
		}
		link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
		if err != nil {
			return nil, fmt.Errorf("linking %s: %w", name, err)
		}
		var salt [8]byte
		binary.LittleEndian.PutUint64(salt[:], seed)
		key := sha256.Sum256(append([]byte("raptrack-bench-key\x00"+name+"\x00"), salt[:]...))
		out[name] = &appSpec{name: name, app: a, link: link, key: attest.NewHMACKey(key[:])}
	}
	return out, nil
}

// writeKeys pre-writes <dir>/keys/<app>.key: `raptrack serve -journal
// <dir>` loads these instead of generating keys, so the generator can
// sign reports the gateway accepts.
func writeKeys(dir string, specs map[string]*appSpec) error {
	kdir := filepath.Join(dir, "keys")
	if err := os.MkdirAll(kdir, 0o700); err != nil {
		return err
	}
	for name, s := range specs {
		if err := os.WriteFile(filepath.Join(kdir, name+".key"), s.key.Key(), 0o600); err != nil {
			return err
		}
	}
	return nil
}

// record runs one real attested execution and returns its report chain,
// decoupled from engine buffers. A non-empty dictPayload is provisioned
// into the engine first, exactly as a device adopting a DICT frame does;
// setup overrides the app's default peripherals.
func record(s *appSpec, dictPayload []byte, setup func(*mem.Memory), watermark int) ([]*attest.Report, error) {
	if setup == nil {
		setup = s.app.SetupMem()
	}
	p, err := core.NewProver(s.link, s.key, core.ProverConfig{SetupMem: setup, MaxSteps: s.app.MaxSteps, Watermark: watermark})
	if err != nil {
		return nil, err
	}
	if len(dictPayload) > 0 {
		d, err := speccfa.DecodeDictionary(dictPayload)
		if err != nil {
			return nil, fmt.Errorf("decoding gateway dictionary: %w", err)
		}
		if err := p.Engine.SetSpeculation(d); err != nil {
			return nil, err
		}
	}
	chal, err := attest.NewChallenge(s.name)
	if err != nil {
		return nil, err
	}
	reports, _, err := p.Attest(chal)
	if err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, errors.New("attested run produced no reports")
	}
	out := make([]*attest.Report, len(reports))
	for i, r := range reports {
		if out[i], err = attest.DecodeReport(r.Encode()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// templates holds one recorded run per (app, DICT payload): a template
// prover replays it under each session's nonce, re-signed, so the
// gateway sees byte-exact honest evidence while the generator pays a
// re-sign instead of a simulated MCU run. A new DICT version costs one
// real recording, which the window counts in prover.records_in_window.
type templates struct {
	specs     map[string]*appSpec
	watermark int

	mu      sync.Mutex
	byKey   map[string][]*attest.Report
	records []time.Duration // wall time of each recording
}

func newTemplates(specs map[string]*appSpec, watermark int) *templates {
	return &templates{specs: specs, watermark: watermark, byKey: map[string][]*attest.Report{}}
}

func (t *templates) get(app string, dictPayload []byte) ([]*attest.Report, error) {
	sum := sha256.Sum256(dictPayload)
	key := app + "\x00" + string(sum[:])
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.byKey[key]; ok {
		return r, nil
	}
	s, ok := t.specs[app]
	if !ok {
		return nil, fmt.Errorf("no app %q in this workload", app)
	}
	start := time.Now()
	r, err := record(s, dictPayload, nil, t.watermark)
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", app, err)
	}
	t.records = append(t.records, time.Since(start))
	t.byKey[key] = r
	return r, nil
}

// recordings returns the wall time of every recording so far.
func (t *templates) recordings() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.records...)
}

// periphSetup returns the app's peripheral map with the sensor seeded by
// s: the diverse pool's source of distinct honest executions. Only the
// sensor apps have a seeded peripheral.
func periphSetup(app string, s uint32) (func(*mem.Memory), error) {
	switch app {
	case "geiger":
		return func(m *mem.Memory) {
			m.Map(periph.GeigerBase, periph.DeviceWindow, periph.NewGeiger(s, 12))
			m.Map(periph.HostLinkBase, periph.DeviceWindow, &periph.HostLink{})
		}, nil
	case "ultrasonic":
		return func(m *mem.Memory) {
			m.Map(periph.UltrasonicBase, periph.DeviceWindow, periph.NewUltrasonic(s, 20, 90))
			m.Map(periph.HostLinkBase, periph.DeviceWindow, &periph.HostLink{})
		}, nil
	}
	return nil, fmt.Errorf("app %q has no seeded peripheral", app)
}

// recordPool records n distinct honest runs of app (deduplicated by the
// SHA-256 of their CFLog) with peripherals seeded from seed, on workers
// goroutines. The pool order is the peripheral-seed order, so it is a
// pure function of (app, seed, n). It also returns each recording's wall
// time.
func recordPool(s *appSpec, seed uint64, n, workers int) ([][]*attest.Report, []time.Duration, error) {
	type rec struct {
		reports []*attest.Report
		took    time.Duration
		err     error
	}
	// Over-provision candidates a little: duplicates are rare.
	cands := n + n/16 + 16
	recs := make([]rec, cands)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cands; i += workers {
				start := time.Now()
				setup, err := periphSetup(s.name, uint32(mix64(seed, uint64(i)))|1)
				if err == nil {
					recs[i].reports, err = record(s, nil, setup, 0)
				}
				recs[i].took, recs[i].err = time.Since(start), err
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[[sha256.Size]byte]bool, n)
	pool := make([][]*attest.Report, 0, n)
	took := make([]time.Duration, 0, cands)
	for _, r := range recs {
		if r.err != nil {
			return nil, nil, fmt.Errorf("recording %s pool: %w", s.name, r.err)
		}
		took = append(took, r.took)
		h := sha256.New()
		for _, rep := range r.reports {
			h.Write(rep.CFLog)
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		if seen[sum] {
			continue
		}
		seen[sum] = true
		pool = append(pool, r.reports)
		if len(pool) == n {
			return pool, took, nil
		}
	}
	return nil, nil, fmt.Errorf("%s: only %d distinct runs in %d candidates", s.name, len(pool), cands)
}

// hijack is a compromised-device edit: the packet at an aligned offset
// of one report becomes a transfer between two addresses the image does
// not instrument — a code-reuse gadget — and the report is re-signed, so
// authentication passes and only the path check can reject it. The
// gadget encodes the session's sequence number, so every hijacked stream
// is distinct and its reject can never come from the verdict cache.
type hijack struct {
	report int    // index into the report chain
	packet int    // packet index within that report's CFLog
	gadget uint32 // gadget source; the target is gadget+4
}

// gadgetFor derives a session-unique gadget address: 16-byte aligned,
// above every mapped region (all below 0x41000000) and below the SpecCFA
// marker namespace (speccfa.MarkerBase, 0xff000000).
func gadgetFor(seq int64) uint32 {
	return 0x80000000 | uint32(seq&0x03ffffff)<<4
}

// session evidence -----------------------------------------------------

// signed re-signs the template chain under nonce, applying hj when
// non-nil; reports it does not touch share the template's CFLog bytes.
func signed(tpl []*attest.Report, key *attest.HMACKey, nonce [attest.NonceSize]byte, hj *hijack) ([]*attest.Report, error) {
	out := make([]*attest.Report, len(tpl))
	for i, r := range tpl {
		rr := *r
		rr.Nonce = nonce
		rr.Auth = nil
		if hj != nil && hj.report == i {
			rr.CFLog = append([]byte(nil), r.CFLog...)
			off := hj.packet * 8
			binary.LittleEndian.PutUint32(rr.CFLog[off:], hj.gadget)
			binary.LittleEndian.PutUint32(rr.CFLog[off+4:], hj.gadget+4)
		}
		if err := attest.SignReport(&rr, key); err != nil {
			return nil, err
		}
		out[i] = &rr
	}
	return out, nil
}

// appendFrame appends one wire frame (`u8 type | u32 len | payload`).
// remote.WriteFrame issues two writes per frame; building frames in a
// buffer lets a session send its evidence in one write, which keeps the
// generator's CPU per session low.
func appendFrame(b []byte, typ byte, payload []byte) []byte {
	b = append(b, typ)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// rprtFrames renders a batch report stream as RPRT frames.
func rprtFrames(reports []*attest.Report) []byte {
	var b []byte
	for _, r := range reports {
		b = appendFrame(b, remote.FrameRprt, r.Encode())
	}
	return b
}

// sliceFrames renders a streamed session as one SLICE frame per report,
// with the running authentication tag and watermark position a streaming
// prover attaches.
func sliceFrames(nonce [attest.NonceSize]byte, reports []*attest.Report) [][]byte {
	tag := remote.SliceTagInit(nonce)
	var mark uint32
	out := make([][]byte, len(reports))
	for i, r := range reports {
		tag = remote.SliceTagNext(tag, r.Auth)
		mark += uint32(len(r.CFLog))
		sl := remote.Slice{Seq: uint32(i), Mark: mark, Final: r.Final, Tag: tag, Report: r.Encode()}
		out[i] = appendFrame(nil, remote.FrameSlice, remote.EncodeSlice(sl))
	}
	return out
}
