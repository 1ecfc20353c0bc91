.PHONY: all build test check bench bench-quick bench-smoke chaos-smoke detect-smoke trace-smoke perf-smoke model-smoke perf-baseline clean

all: build

build:
	dune build

test: build
	dune runtest

# What CI runs: full build, the whole test suite, and a quick smoke of the
# locality-engine experiment (also exercises the BENCH_locality.json path).
# The experiment runs twice and the two BENCH_locality.json files must be
# byte-identical: any nondeterminism in the locality engine fails here.
# Then the fig8/fig9 sweep runs pinned to one core (one domain) and
# unpinned (one per core), and the two outputs must be byte-identical:
# sweep points that share state across domains fail here.
check: test
	dune exec bin/zeus_cli.exe -- run --quick predictive
	cp BENCH_locality.json BENCH_locality.first.json
	dune exec bin/zeus_cli.exe -- run --quick predictive
	@cmp BENCH_locality.first.json BENCH_locality.json || { echo "check: two predictive runs wrote different BENCH_locality.json" >&2; exit 1; }
	rm -f BENCH_locality.first.json
	taskset -c 0 dune exec bin/zeus_cli.exe -- run --quick fig8 fig9 > sweep.one-core.txt
	dune exec bin/zeus_cli.exe -- run --quick fig8 fig9 > sweep.all-cores.txt
	@cmp sweep.one-core.txt sweep.all-cores.txt || { echo "check: fig8/fig9 output depends on the number of cores" >&2; exit 1; }
	rm -f sweep.one-core.txt sweep.all-cores.txt

bench:
	dune exec bin/zeus_cli.exe -- run all

bench-quick:
	dune exec bin/zeus_cli.exe -- run --quick all

# Quick transport ablation (batched vs unbatched) + sanity-check that the
# machine-readable BENCH_transport.json came out well-formed, and that on
# every workload batching cut fabric messages/txn by at least 30%.
bench-smoke: build
	rm -f BENCH_transport.json
	dune exec bin/zeus_cli.exe -- run --quick transport
	@test -s BENCH_transport.json || { echo "bench-smoke: BENCH_transport.json missing or empty" >&2; exit 1; }
	@for key in smallbank handover unbatched batched messages_per_txn bytes_per_txn events_per_txn committed mean_occupancy messages_cut_ok; do \
	  grep -q "\"$$key\"" BENCH_transport.json || { echo "bench-smoke: key \"$$key\" missing from BENCH_transport.json" >&2; exit 1; }; \
	done
	@if grep -q '"messages_cut_ok": false' BENCH_transport.json; then \
	  echo "bench-smoke: batching cut fabric messages/txn by less than 30%" >&2; exit 1; fi
	@echo "bench-smoke: BENCH_transport.json OK"

# Quick fault-injection run (Smallbank under follower / owner / directory
# crashes) + sanity-check of the machine-readable BENCH_faults.json: all
# expected keys present, every scenario's goodput recovered (no
# "recovery_us": null), and every invariant monitor passed.
chaos-smoke: build
	rm -f BENCH_faults.json
	dune exec bin/zeus_cli.exe -- run --quick faults
	@test -s BENCH_faults.json || { echo "chaos-smoke: BENCH_faults.json missing or empty" >&2; exit 1; }
	@for key in follower owner directory reorder baseline_mtps dip_mtps recovery_us timeline monitors_ok; do \
	  grep -q "\"$$key\"" BENCH_faults.json || { echo "chaos-smoke: key \"$$key\" missing from BENCH_faults.json" >&2; exit 1; }; \
	done
	@if grep -q '"recovery_us": null' BENCH_faults.json; then \
	  echo "chaos-smoke: a scenario never recovered its goodput" >&2; exit 1; fi
	@if grep -q '"monitors_ok": false' BENCH_faults.json; then \
	  echo "chaos-smoke: an invariant monitor reported a violation" >&2; exit 1; fi
	@echo "chaos-smoke: BENCH_faults.json OK"

# Quick failure-detection sweep (heartbeat period x suspicion-timeout floor,
# Detected membership mode) + sanity-check of BENCH_detection.json: all
# expected keys present, every configuration detected the follower crash
# (no "detect_latency_us": null), every detection landed within its
# analytical bound, and commits progressed after every view change.
detect-smoke: build
	rm -f BENCH_detection.json
	dune exec bin/zeus_cli.exe -- run --quick detection
	@test -s BENCH_detection.json || { echo "detect-smoke: BENCH_detection.json missing or empty" >&2; exit 1; }
	@for key in period_us min_timeout_us bound_us detect_latency_us within_bound recovered noise_false_suspicions noise_evictions_averted; do \
	  grep -q "\"$$key\"" BENCH_detection.json || { echo "detect-smoke: key \"$$key\" missing from BENCH_detection.json" >&2; exit 1; }; \
	done
	@if grep -q '"detect_latency_us": null' BENCH_detection.json; then \
	  echo "detect-smoke: a configuration never detected the crash" >&2; exit 1; fi
	@if grep -q '"within_bound": false' BENCH_detection.json; then \
	  echo "detect-smoke: a detection exceeded its analytical bound" >&2; exit 1; fi
	@if grep -q '"recovered": false' BENCH_detection.json; then \
	  echo "detect-smoke: commits did not progress after a view change" >&2; exit 1; fi
	@echo "detect-smoke: BENCH_detection.json OK"

# Quick traced Smallbank run.  The trace subcommand itself validates the
# exported file (parses as Chrome trace JSON, every committed transaction
# carries ownership/execute/replicate spans with nested sim-time bounds)
# and exits non-zero on any violation.
trace-smoke: build
	rm -f trace.json
	dune exec bin/zeus_cli.exe -- trace --workload smallbank --quick --out trace.json
	@test -s trace.json || { echo "trace-smoke: trace.json missing or empty" >&2; exit 1; }
	@echo "trace-smoke: trace.json OK"

# Quick wall-clock perf run (simulator events/sec + -j sweep scaling) +
# sanity-check of BENCH_perf.json: all expected keys present, events/sec no
# worse than 25% below the checked-in baseline (bench/perf_baseline.json),
# GC minor words/event no more than 5% above it, GC promoted words/event no
# more than 10% above it, live words per key of a populated TATP-shaped
# store and words allocated per key while seeding it each no more than 5%
# above it, and the -j1 vs -jN sweep bit-identical.
perf-smoke: build
	rm -f BENCH_perf.json
	dune exec bin/zeus_cli.exe -- run --quick perf
	@test -s BENCH_perf.json || { echo "perf-smoke: BENCH_perf.json missing or empty" >&2; exit 1; }
	@for key in events_per_sec words_per_event promoted_per_event speedup regression_ok words_ok promoted_ok populate live_words_per_key live_words_ok alloc_words_per_key alloc_words_ok sweep identical cores; do \
	  grep -q "\"$$key\"" BENCH_perf.json || { echo "perf-smoke: key \"$$key\" missing from BENCH_perf.json" >&2; exit 1; }; \
	done
	@if grep -q '"regression_ok": false' BENCH_perf.json; then \
	  echo "perf-smoke: events/sec regressed >25% vs bench/perf_baseline.json" >&2; exit 1; fi
	@if grep -q '"words_ok": false' BENCH_perf.json; then \
	  echo "perf-smoke: words/event rose >5% above bench/perf_baseline.json" >&2; exit 1; fi
	@if grep -q '"promoted_ok": false' BENCH_perf.json; then \
	  echo "perf-smoke: promoted words/event rose >10% above bench/perf_baseline.json" >&2; exit 1; fi
	@if grep -q '"live_words_ok": false' BENCH_perf.json; then \
	  echo "perf-smoke: populate live words/key rose >5% above bench/perf_baseline.json" >&2; exit 1; fi
	@if grep -q '"alloc_words_ok": false' BENCH_perf.json; then \
	  echo "perf-smoke: populate allocated words/key rose >5% above bench/perf_baseline.json" >&2; exit 1; fi
	@if grep -q '"identical": false' BENCH_perf.json; then \
	  echo "perf-smoke: -j1 and -jN sweeps diverged (parallelism leaked into results)" >&2; exit 1; fi
	@echo "perf-smoke: BENCH_perf.json OK"

# Bounded model check of the REAL sans-I/O protocol cores (ownership and
# commit), driven through Explorer.bfs: interleavings, duplication, crash +
# arb-replay/commit-replay, plus a negative control that reproduces the
# known reordering deadlock on non-FIFO links.  The subcommand exits
# non-zero on any invariant violation or a suspiciously small state space;
# per-scenario explored-state counts land in the log, and must equal the
# checked-in bench/model_quick.txt: a change to the checker's state space
# shows up as a reviewed diff of that file.
model-smoke: build
	rm -f model-smoke.log
	dune exec bin/zeus_cli.exe -- model --quick --trace > model-smoke.log 2>&1 || { cat model-smoke.log >&2; exit 1; }
	@cat model-smoke.log
	@grep -q "states explored across" model-smoke.log || { echo "model-smoke: no state-count summary in output" >&2; exit 1; }
	@grep -q "reordered links" model-smoke.log || { echo "model-smoke: reordering scenarios missing from run" >&2; exit 1; }
	@grep -E '^(ownership|commit) core:|^total:' model-smoke.log | diff bench/model_quick.txt - || { echo "model-smoke: per-row counts differ from bench/model_quick.txt" >&2; exit 1; }
	@echo "model-smoke: real-core exploration OK"

# Re-capture the reference on this machine: run the perf harness and copy
# its best smallbank events/sec, words/event and promoted words/event, and
# the populate row's live and allocated words/key, into
# bench/perf_baseline.json.  Use when the reference hardware or compiler
# changes — events/sec is machine-bound, the GC figures compiler-bound.
perf-baseline: build
	dune exec bin/zeus_cli.exe -- run --quick perf
	@test -s BENCH_perf.json || { echo "perf-baseline: BENCH_perf.json missing" >&2; exit 1; }
	@eps=$$(sed -n 's/.*"smallbank": {"events_per_sec": \([0-9.]*\).*/\1/p' BENCH_perf.json); \
	  wpe=$$(sed -n 's/.*"words_per_event": \([0-9.]*\).*/\1/p' BENCH_perf.json); \
	  ppe=$$(sed -n 's/.*"promoted_per_event": \([0-9.]*\).*/\1/p' BENCH_perf.json); \
	  lwk=$$(sed -n 's/.*"live_words_per_key": \([0-9.]*\).*/\1/p' BENCH_perf.json); \
	  apk=$$(sed -n 's/.*"alloc_words_per_key": \([0-9.]*\).*/\1/p' BENCH_perf.json); \
	  test -n "$$eps" || { echo "perf-baseline: could not parse events_per_sec" >&2; exit 1; }; \
	  test -n "$$wpe" || { echo "perf-baseline: could not parse words_per_event" >&2; exit 1; }; \
	  test -n "$$ppe" || { echo "perf-baseline: could not parse promoted_per_event" >&2; exit 1; }; \
	  test -n "$$lwk" || { echo "perf-baseline: could not parse live_words_per_key" >&2; exit 1; }; \
	  test -n "$$apk" || { echo "perf-baseline: could not parse alloc_words_per_key" >&2; exit 1; }; \
	  printf '{"events_per_sec": %s,\n "words_per_event": %s,\n "promoted_per_event": %s,\n "live_words_per_key": %s,\n "alloc_words_per_key": %s,\n "captured": "%s",\n "state": "%s",\n "note": "Smallbank quick run, 3 nodes, 10 ms virtual, best of 5; live and allocated words/key of a TATP-shaped quick-scale populate (3 nodes, 18000 keys); events/sec is machine-dependent and the GC figures compiler-dependent — regenerate with '"'"'make perf-baseline'"'"' when either changes."}\n' \
	    "$$eps" "$$wpe" "$$ppe" "$$lwk" "$$apk" "$$(date +%F)" "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" > bench/perf_baseline.json; \
	  echo "perf-baseline: recorded $$eps events/sec, $$wpe words/event, $$ppe promoted words/event, $$lwk live words/key and $$apk allocated words/key in bench/perf_baseline.json"

clean:
	dune clean
	rm -f BENCH_locality.json BENCH_locality.first.json BENCH_transport.json BENCH_faults.json BENCH_detection.json BENCH_perf.json trace.json model-smoke.log sweep.one-core.txt sweep.all-cores.txt
