// Partial reports, streamed: constrained CFLog memory forces the Prover
// to emit evidence in authenticated slices (paper §IV-E), and the
// gateway verifies each slice as it arrives instead of waiting for the
// final report — bounded detection latency plus a device-healing
// round-trip when a slice raises an alarm.
//
// The demo stands up a real gateway on a loopback listener and runs
// three sessions against it over TCP:
//
//  1. an honest device streams the GPS run slice by slice and seals OK;
//
//  2. a tampered device (firmware linked with different padding, so
//     H_MEM disagrees with the golden image) streams the same run — the
//     gateway alarms mid-stream and pushes a HEAL re-provision
//     directive to the device before the run even finishes;
//
//  3. the remediated device re-attests honestly and is healed.
//
// Run it with
//
//	go run ./examples/partial_reports
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"raptrack/internal/apps"
	"raptrack/internal/attest"
	"raptrack/internal/core"
	"raptrack/internal/remote"
	"raptrack/internal/server"
)

// watermark slices the GPS run into a handful of partial reports: the
// engine pauses the parser and emits a slice whenever 64 packets (512
// bytes) accumulate in the MTB.
const watermark = 512

const device = "field-unit-7"

func main() {
	app, err := apps.Get("gps")
	if err != nil {
		log.Fatal(err)
	}
	link, err := core.LinkForCFA(app.Build(), core.DefaultLinkOptions())
	if err != nil {
		log.Fatal(err)
	}
	key, err := attest.GenerateHMACKey()
	if err != nil {
		log.Fatal(err)
	}

	// The gateway holds the golden image and the device key; Serve runs
	// sessions on a loopback listener exactly as in production.
	gw := server.New()
	gw.Register(app.Name, core.NewVerifier(link, key))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := gw.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()
	defer gw.Close()
	addr := ln.Addr().String()

	// --- 1. Honest device: slices stream, session seals OK. ------------
	fmt.Println("honest device streams the GPS run:")
	honest := remote.NewProverEndpoint()
	honest.Provision(app.Name, func() (*core.Prover, error) {
		return core.NewProver(link, key, core.ProverConfig{
			SetupMem:  app.SetupMem(),
			Watermark: watermark,
		})
	})
	cli := remote.NewClient(honest,
		remote.WithDevice(device), remote.WithStreaming(nil))
	gv, err := cli.Attest(dial(addr), app.Name)
	if err != nil {
		log.Fatal(err)
	}
	st := gw.Snapshot()
	fmt.Printf("  %d slice(s) fed, verdict accepted=%v, heal state %q\n\n",
		st.StreamSlices, gv.OK, gw.HealState(app.Name, device))

	// --- 2. Tampered device: mid-stream alarm + HEAL round-trip. --------
	// The firmware is re-linked with one extra padding NOP: the report
	// chain still authenticates, but H_MEM disagrees with the gateway's
	// golden image — a firmware-substitution attack the streaming
	// verifier flags on the first slice, not at the end of the run.
	fmt.Println("tampered device (one flipped padding word in firmware):")
	badOpts := core.DefaultLinkOptions()
	badOpts.NopPad++
	badLink, err := core.LinkForCFA(app.Build(), badOpts)
	if err != nil {
		log.Fatal(err)
	}
	tampered := remote.NewProverEndpoint()
	tampered.Provision(app.Name, func() (*core.Prover, error) {
		return core.NewProver(badLink, key, core.ProverConfig{
			SetupMem:  app.SetupMem(),
			Watermark: watermark,
		})
	})
	onHeal := func(h remote.Heal) {
		fmt.Printf("  mid-stream HEAL pushed at slice %d: %s (%s)\n",
			h.Seq, h.Directive, h.Detail)
	}
	bad := remote.NewClient(tampered,
		remote.WithDevice(device), remote.WithStreaming(onHeal))
	gv, err = bad.Attest(dial(addr), app.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  sealed verdict: accepted=%v (%s)\n", gv.OK, gv.Reason())
	// The prover's HEALACK rides the same connection but lands
	// asynchronously; once processed it commits the device to
	// remediation — "healing" rather than "quarantined".
	for gw.Snapshot().HealAcks == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("  heal state after ack: %q\n\n", gw.HealState(app.Name, device))

	// --- 3. Remediated device re-attests and is healed. -----------------
	fmt.Println("device re-provisioned with golden firmware, re-attesting:")
	gv, err = cli.Attest(dial(addr), app.Name)
	if err != nil {
		log.Fatal(err)
	}
	st = gw.Snapshot()
	fmt.Printf("  verdict accepted=%v, heal state %q\n", gv.OK, gw.HealState(app.Name, device))
	fmt.Printf("\ngateway totals: %d streamed session(s), %d slice(s), %d alarm(s), %d heal directive(s), %d ack(s)\n",
		st.StreamSessions, st.StreamSlices, st.StreamAlarms, st.HealDirectives, st.HealAcks)
}

func dial(addr string) net.Conn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	return conn
}
