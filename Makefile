.PHONY: all build test check bench fault-check timeline-check report-check \
  metrics-check stream-check perf-check core-check sweep-check sched-check \
  meter-check serve-check examples-check cli-check ledger ledger-runs \
  ledger-check clean

all: build

build:
	dune build

# Tier-1 verification: full build + test suite, including the
# property-based Pool/determinism tests and the golden-file comparison
# of Table 2 and Figures 3/4 (test/golden/*.expected).
test:
	dune runtest

check: build test

# Regenerate every table/figure with metrics, fanned out over domains.
bench: build
	dune exec bench/main.exe -- --metrics

# Fault-injection smoke: a fixed seeded fault spec on swim must
# reproduce the checked-in golden byte-for-byte (determinism of the
# degraded-mode replay end-to-end through the CLI).
FAULT_SPEC = seed=7,read=0.01,bad=0.005,spinfail=0.25,fail=0@30
fault-check: build
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	  --faults "$(FAULT_SPEC)" > _build/fault_smoke.out
	cmp _build/fault_smoke.out test/golden/fault_smoke.expected

# Timeline smoke: the per-scheme event-log summary of a fixed run must
# reproduce the checked-in golden byte-for-byte, from flags and from the
# same run's dpm-spec/1 file; recording must not
# change the results table (the observer-effect guarantee, end-to-end
# through the CLI); the JSONL export must read back cleanly with
# zero invariant violations; the CSV export of the same run must match
# its checked-in digest (the file is ~400 KB, so the digest is pinned,
# not the bytes); and hostile logs (a negative disk id, and a disk id of
# 10^9 that would size a lane per id) must make the reader exit 2 with
# a typed error, not die on an exception or run out of memory.
timeline-check: build
	dune exec bin/dpmsim.exe -- simulate -b galgel -s Base,CMDRPM \
	  --timeline - > _build/timeline_smoke.out
	cmp _build/timeline_smoke.out test/golden/timeline_smoke.expected
	dune exec bin/dpmsim.exe -- simulate \
	  --spec test/specs/serve-metered.spec.json --timeline - \
	  > _build/timeline_spec.out
	cmp _build/timeline_spec.out test/golden/timeline_smoke.expected
	dune exec bin/dpmsim.exe -- simulate -b galgel -s CMDRPM \
	  --timeline _build/timeline_smoke.jsonl > _build/timeline_on.out
	dune exec bin/dpmsim.exe -- simulate -b galgel -s CMDRPM \
	  > _build/timeline_off.out
	cmp _build/timeline_on.out _build/timeline_off.out
	dune exec bin/dpmsim.exe -- timeline _build/timeline_smoke.jsonl > /dev/null
	dune exec bin/dpmsim.exe -- simulate -b galgel -s Base,CMDRPM \
	  --timeline _build/timeline_smoke.csv > /dev/null
	md5sum -c --quiet test/golden/timeline_smoke_csv.md5
	_build/default/bin/dpmsim.exe timeline test/golden/timeline_hostile.jsonl \
	  > /dev/null 2>&1; test $$? -eq 2
	_build/default/bin/dpmsim.exe timeline test/golden/timeline_huge_disk.jsonl \
	  > /dev/null 2>&1; test $$? -eq 2

# Observability smoke: generate a full run report (JSON + markdown) and
# a Chrome trace, validate both (schema fields, invariant verdicts,
# balanced B/E events), and pin the report's schema outline against the
# golden — values may drift, the shape may not.  Also snapshots the
# benchmark harness's dpm-bench/1 JSON, and requires the simulate and
# report help pages to render without a cmdliner markup error.
report-check: build
	dune exec bin/dpmsim.exe -- report -b swim --faults "$(FAULT_SPEC)" \
	  -o _build/report.json --md _build/report.md --trace _build/report_trace.json
	dune exec bin/dpmsim.exe -- report-check _build/report.json \
	  --trace _build/report_trace.json --schema > _build/report_schema.out
	cmp _build/report_schema.out test/golden/report_schema.expected
	dune exec bench/main.exe -- table1 --json _build/bench.json > /dev/null
	set -e; for c in simulate report; do \
	  if _build/default/bin/dpmsim.exe $$c --help=plain 2>&1 >/dev/null \
	      | grep -q 'cmdliner error'; then \
	    echo "dpmsim $$c --help=plain: cmdliner error"; exit 1; \
	  fi; \
	done

# Collector smoke: which stages (with call counts), counters and
# throughput lines --metrics prints for a fixed faulty run, for a
# figure fanned out over two pool domains, and for a run whose two CM
# schemes share one compiler analysis must reproduce the checked-in
# golden.  The filter keeps only the metrics sections and drops what
# varies run to run: the total/mean timing columns, the rule lines
# (their width follows the timings) and the throughput values.
METRICS_FILTER = awk '/^== Metrics: / { m = 1; s = /per-stage/ } \
  !m || /^-[- ]*$$/ { next } s && /^[a-z]/ { $$0 = $$1 " " $$2 } \
  /\/s: / { sub(/: .*/, ":") } { print }'
metrics-check: build
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	  --faults "$(FAULT_SPEC)" --metrics | $(METRICS_FILTER) \
	  > _build/metrics_smoke.out
	dune exec bin/dpmsim.exe -- figure table2 --metrics --domains 2 \
	  | $(METRICS_FILTER) >> _build/metrics_smoke.out
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,CMTPM,CMDRPM \
	  --metrics | $(METRICS_FILTER) >> _build/metrics_smoke.out
	cmp _build/metrics_smoke.out test/golden/metrics_smoke.expected

# Streaming smoke: --stream and --batch never change a result through
# the CLI.  A benchmark's generated trace is built once whatever they
# say: its run must match the checked-in golden, a run without the
# flags, and (with fault injection on) the fault golden.  A trace file
# is read chunk by chunk under --stream: the replay of swim's saved
# trace, faults on and off, must match the replay that loads it once.
stream-check: build
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	  --stream --batch 7 > _build/stream_smoke.out
	cmp _build/stream_smoke.out test/golden/stream_smoke.expected
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	  > _build/stream_materialized.out
	cmp _build/stream_smoke.out _build/stream_materialized.out
	dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	  --stream --faults "$(FAULT_SPEC)" > _build/stream_faults.out
	cmp _build/stream_faults.out test/golden/fault_smoke.expected
	$(DPMSIM) trace -b swim -o _build/stream_swim.trc > /dev/null
	set -e; for f in "" "$(FAULT_SPEC)"; do \
	  $(DPMSIM) simulate --trace-file _build/stream_swim.trc \
	    --faults "$$f" > _build/stream_file_loaded.out; \
	  $(DPMSIM) simulate --trace-file _build/stream_swim.trc \
	    --faults "$$f" --stream --batch 7 > _build/stream_file_streamed.out; \
	  cmp _build/stream_file_loaded.out _build/stream_file_streamed.out; \
	done
	rm -f _build/stream_swim.trc

# Replay-core throughput gate: the fast SoA core must stay within
# tolerance of the committed events/sec and fast-vs-reference speedup
# floors (test/golden/bench_baseline.json), and must produce results
# structurally identical to the reference core on every scheme (the
# benchmark exits non-zero on either failure).
perf-check: build
	dune exec bench/main.exe -- throughput --json _build/throughput.json \
	  --baseline test/golden/bench_baseline.json

# The per-layer ledger: perfbench's traced run (read-only; its output is
# only parsed) of the two batch workloads, recorded as BENCH_<PR>.json —
# each workload's final JSON line and its deterministic per-layer calls,
# events and minor words — plus, as context, the wall seconds of two
# whole-system runs: every paper figure, and a sweep over simulator
# knobs only.  `make ledger PR=<n>` writes the file a change commits;
# `make ledger-check` reruns the traced workloads and fails if a layer's
# call or event count differs from the newest committed BENCH_*.json,
# or its words per event (per call for a layer with no events) rose by
# more than 2%.  Times and the context are printed, not gated.
LEDGER_WORKLOADS = suite-grid trace-replay
LEDGER_RUNS = $(foreach w,$(LEDGER_WORKLOADS),$(w)=_build/ledger_$(w).out)
LEDGER_FIGURES = table1 table2 fig3 fig4 table3 fig5 fig6 fig7 fig8 fig13 \
  ext ext-shared ablation-knobs ablation-closed fault-sweep
LEDGER_SWEEP = sweep --axes "drpm-lower=0.02,0.05,0.08;drpm-window=10,30,60" \
  -w swim,galgel,mesa --domains 1
LEDGER_CONTEXT = _build/ledger_context.txt
ledger-runs: build
	set -e; for w in $(LEDGER_WORKLOADS); do \
	  bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 1 \
	    > _build/ledger_$$w.out; \
	done
	_build/default/bench/ledger.exe time all-figures \
	  _build/default/bench/main.exe $(LEDGER_FIGURES) \
	  > $(LEDGER_CONTEXT)
	_build/default/bench/ledger.exe time knob-sweep \
	  _build/default/bin/dpmsim.exe $(LEDGER_SWEEP) \
	  >> $(LEDGER_CONTEXT)

ledger:
	@test -n "$(PR)" || { echo "usage: make ledger PR=<number>" >&2; exit 2; }
	$(MAKE) ledger-runs
	_build/default/bench/ledger.exe write $(PR) $(LEDGER_CONTEXT) \
	  $(LEDGER_RUNS) > _build/ledger.json
	mv _build/ledger.json BENCH_$(PR).json

ledger-check: ledger-runs
	_build/default/bench/ledger.exe check . $(LEDGER_CONTEXT) $(LEDGER_RUNS)

# Replay-core differential on real traces: the six committed
# compiler-inserted traces (perfbench/data, read-only; 1,344 directives
# between them) replay through the CLI on the fast and the reference
# core under every queue discipline, with and without the fault spec,
# and both the results table and the %.17g timeline JSONL must be
# byte-identical across cores.  The qcheck suite and perf-check only
# see synthetic traces.  The same traces then replay merged:
# perfbench's 4-tenant open-loop descriptor, under every discipline,
# with and without the fault spec, on both cores, materialized and
# streamed; per discipline and fault setting, the four results tables
# and the four timeline JSONL files must all match.
CORE_SCHEDS = fcfs sstf scan c-look sstf-remap
core-check: build
	set -e; for t in perfbench/data/*.trc; do for s in $(CORE_SCHEDS); do \
	  b=_build/core_$$(basename $$t .trc).$$s; \
	  for core in fast reference; do \
	    _build/default/bin/dpmsim.exe simulate --trace-file $$t --sched $$s \
	      --core $$core --timeline $$b.$$core.jsonl > $$b.$$core.out; \
	    _build/default/bin/dpmsim.exe simulate --trace-file $$t --sched $$s \
	      --core $$core --faults "$(FAULT_SPEC)" \
	      --timeline $$b.$$core.faults.jsonl > $$b.$$core.faults.out; \
	  done; \
	  for f in out jsonl faults.out faults.jsonl; do \
	    cmp $$b.fast.$$f $$b.reference.$$f; \
	  done; \
	  rm -f $$b.*.jsonl; \
	done; done
	set -e; \
	load="rate=0.05,jobs=4,zipf=0.5,seed=4,sources=$$(ls perfbench/data/*.trc | paste -sd: -)"; \
	for s in $(CORE_SCHEDS); do for faults in "$(FAULT_SPEC)" ""; do \
	  b=_build/core_merge.$$s$${faults:+.faults}; \
	  for v in fast reference fast-stream reference-stream; do \
	    _build/default/bin/dpmsim.exe simulate --open-loop "$$load" \
	      -s Base,TPM,DRPM,CMDRPM --sched $$s --faults "$$faults" \
	      --core $${v%-stream} $$(case $$v in *-stream) echo --stream;; esac) \
	      --timeline $$b.$$v.jsonl > $$b.$$v.out; \
	  done; \
	  for v in reference fast-stream reference-stream; do \
	    cmp $$b.fast.out $$b.$$v.out; \
	    cmp $$b.fast.jsonl $$b.$$v.jsonl; \
	  done; \
	  rm -f $$b.*.jsonl; \
	done; done

# Scheduler smoke: every request-scheduling discipline replays the same
# faulty mixed-fleet workload (a fast 36Z15 round-robined with a flash
# tier) and must reproduce the checked-in golden byte-for-byte.  FCFS
# pins the legacy engine; the others pin the deferred-dispatch queues
# end-to-end through the CLI, fleet plumbing and fault layer included.
sched-check: build
	set -e; : > _build/sched_smoke.out; \
	for s in fcfs sstf scan c-look sstf-remap; do \
	  echo "== sched=$$s ==" >> _build/sched_smoke.out; \
	  dune exec bin/dpmsim.exe -- simulate -b swim -s Base,DRPM,CMDRPM \
	    --fleet ultrastar_36z15,flash --sched $$s \
	    --faults "$(FAULT_SPEC)" >> _build/sched_smoke.out; \
	done
	cmp _build/sched_smoke.out test/golden/sched_smoke.expected

# Power-meter smoke: the rendered per-disk power strip + summary of a
# fixed run must reproduce the checked-in golden byte-for-byte; metering
# must not change the results table (the observer-effect guarantee,
# end-to-end through the CLI); and a small sweep's artifacts — two
# replayed winning specs metered to dpm-meter/1 JSONL plus two run
# reports (one under SSTF with fault injection) — must aggregate into a
# valid dpm-agg/1 fleet dashboard (dpmsim aggregate validates its own
# output and exits non-zero otherwise).
meter-check: build
	dune exec bin/dpmsim.exe -- simulate -b galgel -s Base,CMDRPM \
	  --meter - --resolution 2 > _build/meter_smoke.out
	cmp _build/meter_smoke.out test/golden/meter_smoke.expected
	dune exec bin/dpmsim.exe -- simulate -b galgel -s CMDRPM \
	  --meter _build/meter_on.jsonl > _build/meter_on.out
	dune exec bin/dpmsim.exe -- simulate -b galgel -s CMDRPM \
	  > _build/meter_off.out
	cmp _build/meter_on.out _build/meter_off.out
	rm -rf _build/meter_sweep
	dune exec bin/dpmsim.exe -- sweep --axes "tpm-threshold=4,15.2" \
	  -w swim,galgel -s Base,TPM,CMDRPM \
	  --output-dir _build/meter_sweep > /dev/null
	dune exec bin/dpmsim.exe -- simulate \
	  --spec _build/meter_sweep/best-swim.spec.json \
	  --meter _build/meter_sweep/best-swim.meter.jsonl > /dev/null
	dune exec bin/dpmsim.exe -- simulate \
	  --spec _build/meter_sweep/best-galgel.spec.json \
	  --meter _build/meter_sweep/best-galgel.meter.jsonl > /dev/null
	dune exec bin/dpmsim.exe -- report -b swim --sched sstf \
	  --faults "$(FAULT_SPEC)" \
	  -o _build/meter_sweep/report-swim.json > /dev/null
	dune exec bin/dpmsim.exe -- report -b galgel \
	  --fleet ultrastar_36z15,flash \
	  -o _build/meter_sweep/report-galgel.json > /dev/null
	dune exec bin/dpmsim.exe -- aggregate _build/meter_sweep \
	  -o _build/meter_agg.json --md _build/meter_agg.md

# Auto-tuning sweep smoke: a fixed 2x2 thresholds x tolerances grid over
# swim and galgel must reproduce the checked-in golden byte-for-byte
# (determinism of the whole sweep: grid expansion, parallel fan-out,
# best/winner selection, sensitivity analysis), emit a valid dpm-sweep/1
# JSON document (the CI artifact), and replay each persisted winning
# spec bit-identically (dpmsim exits non-zero otherwise).
sweep-check: build
	dune exec bin/dpmsim.exe -- sweep \
	  --axes "tpm-threshold=4,15.2;drpm-lower=0.02,0.08" -w swim,galgel \
	  --output-dir _build/sweep > _build/sweep_smoke.out
	cmp _build/sweep_smoke.out test/golden/sweep_smoke.expected

# Service smoke: a daemon on a Unix socket serves a mixed committed
# spec batch — a benchmark run, an open-loop multi-tenant run, and one
# metered job whose streamed samples the client integrates against the
# report's energy column — and the client's deterministic stdout must
# reproduce the checked-in golden byte-for-byte.  The shutdown op drains
# the queue (the daemon exits 0 only after every admitted job finished),
# and every results-table line of a direct `simulate --spec` of the same
# spec must appear verbatim in the daemon output (daemon == direct
# execution, end-to-end over the wire).
serve-check: build
	set -e; rm -f _build/serve.sock; rm -rf _build/serve_reports; \
	_build/default/bin/dpmsim.exe serve --socket _build/serve.sock \
	  --queue 2 --domains 2 > _build/serve_daemon.log 2>&1 & \
	pid=$$!; \
	_build/default/bin/dpmsim.exe submit --socket _build/serve.sock \
	  -o _build/serve_reports \
	  test/specs/serve-swim.spec.json test/specs/serve-openloop.spec.json \
	  > _build/serve_smoke.out 2>/dev/null; \
	_build/default/bin/dpmsim.exe submit --socket _build/serve.sock \
	  --meter 2 -o _build/serve_reports --shutdown \
	  test/specs/serve-metered.spec.json \
	  >> _build/serve_smoke.out 2>/dev/null; \
	wait $$pid
	cmp _build/serve_smoke.out test/golden/serve_smoke.expected
	_build/default/bin/dpmsim.exe simulate \
	  --spec test/specs/serve-swim.spec.json > _build/serve_direct.out
	while IFS= read -r line; do \
	  grep -Fxq "$$line" _build/serve_smoke.out \
	    || { echo "daemon output missing: $$line"; exit 1; }; \
	done < _build/serve_direct.out

# Examples smoke: the four examples are deterministic and are the
# callers of the compiler's default cache (no ~cache_blocks), so each
# must print its checked-in golden byte-for-byte.
EXAMPLES = quickstart swim_schemes fission_layout tiling_layout
examples-check: build
	set -e; for e in $(EXAMPLES); do \
	  _build/default/examples/$$e.exe > _build/example_$$e.out; \
	  cmp _build/example_$$e.out test/golden/example_$$e.expected; \
	done

# CLI smoke for outputs no other check pins: the front-half commands
# (compile, dap, transform) must print their checked-in golden, and the
# sweep-check grid's markdown report and a metered run's dpm-meter/1
# JSONL (by digest) must match theirs.  Then every suite benchmark's
# trace round-trips: `trace -b B -o` saves the trace a benchmark job
# replays, so `simulate --trace-file` of it must print `simulate -b B`'s
# Base, TPM, ITPM, DRPM and IDRPM rows.  The CM rows differ by design: a
# saved Base trace carries no directives.
DPMSIM = _build/default/bin/dpmsim.exe
ROUND_TRIP_SCHEMES = Base,TPM,ITPM,DRPM,IDRPM
cli-check: build
	{ $(DPMSIM) compile -b galgel; $(DPMSIM) dap -b swim -d 0; \
	  $(DPMSIM) transform -b swim -t TL+DL; } > _build/cli_smoke.out
	cmp _build/cli_smoke.out test/golden/cli_smoke.expected
	$(DPMSIM) sweep --axes "tpm-threshold=4,15.2;drpm-lower=0.02,0.08" \
	  -w swim,galgel --md _build/cli_sweep.md > /dev/null
	cmp _build/cli_sweep.md test/golden/sweep_smoke_md.expected
	$(DPMSIM) simulate -b galgel -s Base,CMDRPM \
	  --meter _build/cli_meter.jsonl > /dev/null
	md5sum -c --quiet test/golden/cli_meter_jsonl.md5
	set -e; for b in $$($(DPMSIM) list | awk 'NR > 1 { print $$1 }'); do \
	  t=_build/cli_$$b; \
	  $(DPMSIM) trace -b $$b -o $$t.trc > /dev/null; \
	  $(DPMSIM) simulate --trace-file $$t.trc -s $(ROUND_TRIP_SCHEMES) \
	    > $$t.file.out; \
	  $(DPMSIM) simulate -b $$b -s $(ROUND_TRIP_SCHEMES) > $$t.bench.out; \
	  cmp $$t.file.out $$t.bench.out; \
	  rm -f $$t.trc; \
	done

clean:
	dune clean
