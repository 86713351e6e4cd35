package speccfa_test

import (
	"slices"
	"sync"
	"testing"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/speccfa"
	"raptrack/internal/trace"
	"raptrack/internal/trace/pipeline"
)

// servedApps are the applications whose accepted evidence a gateway mines
// in the repository's benchmarks, examples and selftests.
var servedApps = []string{"fibcall", "prime", "gps", "crc32", "geiger", "ultrasonic", "interrupt", "rtos", "dispatch"}

var (
	evidenceOnce sync.Once
	evidence     map[string][]trace.Packet
	evidenceErr  error
)

// appEvidence returns each served app's uncompressed evidence from one
// attested run: the packets a gateway mines after accepting the session.
func appEvidence(tb testing.TB) map[string][]trace.Packet {
	tb.Helper()
	evidenceOnce.Do(func() {
		evidence = make(map[string][]trace.Packet)
		key, err := attest.GenerateHMACKey()
		if err != nil {
			evidenceErr = err
			return
		}
		for _, name := range servedApps {
			a, err := apps.Get(name)
			if err != nil {
				evidenceErr = err
				return
			}
			link, err := core.LinkForCFA(a.Build(), core.DefaultLinkOptions())
			if err != nil {
				evidenceErr = err
				return
			}
			p, err := core.NewProver(link, key, core.ProverConfig{SetupMem: a.SetupMem()})
			if err != nil {
				evidenceErr = err
				return
			}
			chal, err := attest.NewChallenge(name)
			if err != nil {
				evidenceErr = err
				return
			}
			reports, _, err := p.Attest(chal)
			if err != nil {
				evidenceErr = err
				return
			}
			var log []byte
			for _, r := range reports {
				log = append(log, r.CFLog...)
			}
			packets, derr := pipeline.New(pipeline.Raw(pipeline.FormatMTB, log)).Packets()
			if derr != nil {
				evidenceErr = derr
				return
			}
			evidence[name] = packets
		}
	})
	if evidenceErr != nil {
		tb.Fatal(evidenceErr)
	}
	return evidence
}

// TestMineMatchesReferenceOnApps: on every served app's evidence, under
// the gateway's arguments and wider ones, Mine returns exactly the
// reference's dictionary.
func TestMineMatchesReferenceOnApps(t *testing.T) {
	ev := appEvidence(t)
	for _, name := range servedApps {
		for _, args := range [][3]int{{8, 2, 8}, {16, 2, 8}, {32, 3, 12}} {
			got, err := speccfa.Mine(ev[name], args[0], args[1], args[2])
			if err != nil {
				t.Fatal(err)
			}
			want, err := speccfa.ReferenceMine(ev[name], args[0], args[1], args[2])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got.Paths(), want.Paths(), func(a, b speccfa.SubPath) bool {
				return a.ID == b.ID && slices.Equal(a.Packets, b.Packets)
			}) {
				t.Errorf("%s Mine(%d packets, %v):\n got %v\nwant %v", name, len(ev[name]), args, got.Paths(), want.Paths())
			}
		}
	}
}

// BenchmarkMine times one gateway mining pass (8 paths, windows of 2-8
// packets) on each served app's evidence; the reference sub-benchmarks
// time the string-keyed Mine it replaced.
func BenchmarkMine(b *testing.B) {
	ev := appEvidence(b)
	for _, impl := range []struct {
		name string
		mine func([]trace.Packet, int, int, int) (*speccfa.Dictionary, error)
	}{{"fast", speccfa.Mine}, {"reference", speccfa.ReferenceMine}} {
		for _, name := range servedApps {
			b.Run(impl.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.mine(ev[name], 8, 2, 8); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
