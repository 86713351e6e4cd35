# Developer / CI entry points. `make check` is what CI runs.
GO ?= go

.PHONY: check fmt vet staticcheck build test race fuzz fuzz-smoke fuzz-corpus chaos journal-chaos stream-chaos replay-selftest obs bench bench-smoke bench-verify bench-fleet bench-stream serve-selftest metrics-scrape

check: fmt vet staticcheck build test race fuzz chaos journal-chaos

# Fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally: run it when installed, skip with a
# note otherwise. CI installs it, so `command -v` finds it there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Execute the fuzz seed corpora as regression tests (no fuzzing time;
# use `go test -fuzz FuzzReadFrame ./internal/remote` to actually fuzz).
fuzz:
	$(GO) test -run Fuzz ./internal/remote ./internal/attest ./internal/core ./internal/trace/pipeline ./internal/speccfa

# Short coverage-guided fuzzing of every target (one at a time: the Go
# fuzzer allows a single -fuzz pattern per package invocation). 30s per
# target keeps this inside a CI budget while still churning millions of
# execs over the checked-in seed corpora.
FUZZTIME ?= 30s
fuzz-smoke: fuzz
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz FuzzParseBusy -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz FuzzDecodeVerdict -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz FuzzParseHelloID -fuzztime $(FUZZTIME) ./internal/remote
	$(GO) test -run xxx -fuzz FuzzDecodeReport -fuzztime $(FUZZTIME) ./internal/attest
	$(GO) test -run xxx -fuzz FuzzDecodeChallenge -fuzztime $(FUZZTIME) ./internal/attest
	$(GO) test -run xxx -fuzz FuzzAutomatonDifferential -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzPipelineDecode -fuzztime $(FUZZTIME) ./internal/trace/pipeline
	$(GO) test -run xxx -fuzz FuzzMineDifferential -fuzztime $(FUZZTIME) ./internal/speccfa

# Regenerate the checked-in seed corpora under testdata/fuzz/.
fuzz-corpus:
	$(GO) run ./tools/fuzzcorpus

# Chaos suite: seeded fault injection across hardware, wire, and gateway
# plus the prover retry / breaker / quarantine resilience tests. Seeds
# are pinned in the tests, so -count=2 re-runs the same schedules — what
# it actually shakes out is goroutine scheduling under -race.
chaos:
	$(GO) test -race -run 'Chaos|Faults' -count=2 ./internal/server ./internal/trace ./internal/faults

# Evidence-plane chaos: the crash-recovery matrix, the seeded disk-fault
# schedules (short writes, fsync storms, torn tails, bit flips), and the
# gateway-under-journal-failure integration tests. Seeds are pinned;
# -count=2 shakes goroutine schedules under -race.
journal-chaos:
	$(GO) test -race -run 'Journal|Recovery|DiskFaults' -count=2 \
		./internal/journal ./internal/faults ./internal/server

# Streaming chaos: hostile slice schedules (loss, reorder, duplication,
# truncation, dropped heal acks) against the gateway's streaming plane,
# plus the heal lifecycle under -race. Zero false accepts is the
# invariant; seeds are pinned, -count=2 shakes goroutine schedules.
stream-chaos:
	$(GO) test -race -run 'StreamChaos|StreamingHeal|StreamingRoundTrip|StreamingMatchesBatch|StreamingJournalReplay' \
		-count=2 ./internal/server

# End-to-end evidence audit: run a journaling selftest, then re-verify
# every journaled verdict bit-for-bit from the evidence alone. Any diff
# (or chain break) fails the build.
replay-selftest:
	rm -rf replay-selftest.journal
	$(GO) run ./cmd/raptrack serve -apps prime,gps,crc32 -selftest 16 \
		-journal replay-selftest.journal
	$(GO) run ./cmd/raptrack replay -journal replay-selftest.journal

# Observability surface: the obs package tests (registry, exposition,
# tracing, admin endpoint) plus the gateway scrape-under-load race test.
obs:
	$(GO) test -race ./internal/obs
	$(GO) test -race -run 'MetricsScrapeUnderLoad' ./internal/server

# One selftest run with the admin endpoint up, persisting a real
# /metrics scrape. CI uploads the file so every PR carries a sample
# exposition to diff against.
metrics-scrape:
	$(GO) run ./cmd/raptrack serve -apps prime,gps,crc32 -selftest 16 \
		-admin 127.0.0.1:0 -metrics-out metrics-scrape.txt

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Quick gateway-throughput smoke: one iteration per case, cache off vs
# on. CI uploads the output so fast-path regressions are visible per-PR.
bench-smoke:
	$(GO) test -bench ServerThroughput -benchtime 1x -run xxx . | tee bench-smoke.txt

# Verifier-core engine matrix: interpreter vs compiled automaton, cache
# off/on, on frozen attested evidence. Writes BENCH_verify.json; CI
# uploads it so verifier-core regressions are visible per-PR.
bench-verify:
	$(GO) run ./cmd/benchsuite -fig verify -out BENCH_verify.json

# Fleet-scale benchmark against one gateway: capacity scaling over a
# slot sweep (8/16/32 slots) on latency-shaped links, then a 10k-prover
# diurnal wave + firmware-push herd. The pinned -smoke profile finishes
# inside a minute on one core; CI uploads BENCH_fleet.json per-PR.
bench-fleet:
	$(GO) run ./cmd/fleetsim -smoke -out BENCH_fleet.json

# Streaming attestation plane: slices-to-detect distribution for a
# mid-run compromise plus honest streamed-session overhead vs the batch
# path (must stay under 10%). Writes BENCH_stream.json; CI uploads it so
# detection-latency regressions are visible per-PR.
bench-stream:
	$(GO) run ./cmd/benchsuite -fig stream -out BENCH_stream.json

# One-command load check of the gateway networking path.
serve-selftest:
	$(GO) run ./cmd/raptrack serve -apps prime,gps,crc32 -selftest 16
