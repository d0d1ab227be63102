# Convenience targets; everything is plain dune underneath.

.PHONY: all build check fmt fmt-check test test-jobs4 test-all stats-check bench bench-fast bench-smoke serve-demo netlist-demo obs-check examples clean

all: build

# what CI runs (see .github/workflows/ci.yml): the test suite under a
# sequential and a 4-domain pool, once more with metrics recording on
# (results must not change by a bit), the bench smoke (every gated
# section of bench/main.ml: it fails on the first missed gate and
# records each section's payload plus a "gates" object of value,
# bound and margin in the seven smoke BENCH_*.json files), the
# rlcserved demo round-trip, the rlcsim example-netlist golden, and
# the observability gate below (in-process vs offline trace identity)
check: build test test-jobs4 stats-check bench-smoke serve-demo netlist-demo obs-check

# observability self-check: run the demo job stream with both
# --journal and --trace, render the trace again offline from the
# journal with rlcstat, and require the two traces to be byte-identical
# (spans are journal events; the Chrome trace is a pure rendering of
# them); then print the rlcstat rollup of the journal
obs-check:
	dune exec bin/rlcserved.exe -- --jobs-file examples/jobs/demo.jobs -q \
	  --journal _obs_demo.jsonl --trace _obs_demo.trace.json > /dev/null
	dune exec bin/rlcstat.exe -- trace _obs_demo.jsonl -o _obs_demo.offline.json
	cmp _obs_demo.trace.json _obs_demo.offline.json
	dune exec bin/rlcstat.exe -- _obs_demo.jsonl
	rm -f _obs_demo.jsonl _obs_demo.trace.json _obs_demo.offline.json

build:
	dune build @all

# formatting is a separate CI job (needs the ocamlformat binary, which
# not every dev box has) — not part of `check`
fmt:
	dune build @fmt --auto-promote

fmt-check:
	dune build @fmt

test-jobs4:
	RLC_JOBS=4 dune runtest --force

# the whole suite with rlc_instr recording on: every waveform/number
# must still be bit-identical (recording must never perturb results)
stats-check:
	RLC_STATS=1 dune runtest --force

test:
	dune runtest

test-all:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-fast:
	dune exec bench/main.exe -- --fast

# the gated bench sections at small sizes (also part of `dune runtest`,
# after the test suites); rewrites BENCH_opt, _sparse, _mor, _instr,
# _parallel, _whatif and _serve.json in the current directory
bench-smoke:
	dune exec bench/main.exe -- --smoke

# round-trip the demo job stream through rlcserved and diff against
# the checked-in golden (results are bit-identical at any -j)
serve-demo:
	dune exec bin/rlcserved.exe -- --jobs-file examples/jobs/demo.jobs -q \
	  | diff examples/jobs/demo.golden -

# run rlcsim on every example netlist and diff against the checked-in
# golden; the v(<name>) probe labels exercise the parsed deck's node
# names end to end
# rlcsim on every example deck -- and, for a deck with an .ac card,
# its AC sweep summary and CSV too -- diffed against the golden; then
# each deck under bad/ must be refused with exit status 1, never an
# uncaught exception, and the refusals' stderr (rlcsim: messages and
# the parser's file:line: errors) is diffed against a golden too
netlist-demo:
	dune build bin/rlcsim.exe
	for f in examples/netlists/*.sp; do \
	  echo "## $$f"; dune exec bin/rlcsim.exe -- $$f; \
	  if grep -q '^\.ac' $$f; then \
	    echo "## $$f --ac"; \
	    dune exec bin/rlcsim.exe -- $$f --ac --csv _netlist_demo.csv \
	      && cat _netlist_demo.csv; \
	  fi; \
	done | diff examples/netlists/rlcsim.golden -
	rm -f _netlist_demo.csv
	for run in "no_source.sp --ac" "no_tran.sp" "no_probe.sp" \
	  "vsource_loop.sp" "floating_island.sp" \
	  $$(cd examples/netlists/bad && ls parse_*.sp); do \
	  echo "## bad/$$run"; \
	  dune exec bin/rlcsim.exe -- examples/netlists/bad/$$run \
	    > /dev/null 2> _netlist_demo.err; st=$$?; cat _netlist_demo.err; \
	  if [ $$st -ne 1 ] || grep -q "internal error" _netlist_demo.err; then \
	    echo "rlcsim bad/$$run: exit $$st, want 1 and no internal error" >&2; \
	    rm -f _netlist_demo.err; exit 1; \
	  fi; \
	done > _netlist_demo.refused
	rm -f _netlist_demo.err
	diff examples/netlists/bad/refused.golden _netlist_demo.refused
	rm -f _netlist_demo.refused

examples:
	dune exec examples/quickstart.exe
	dune exec examples/inductance_sweep.exe
	dune exec examples/scaling_study.exe
	dune exec examples/signal_integrity.exe
	dune exec examples/tree_buffering.exe
	dune exec examples/bus_shielding.exe
	dune exec examples/clock_tree.exe
	dune exec examples/ring_oscillator.exe

clean:
	dune clean
