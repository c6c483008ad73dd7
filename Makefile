# Convenience entry points; see README.md for the full bench matrix.

.PHONY: all check build test lint faultcheck statecheck resume-smoke faults-env-smoke trace-smoke sanitize-smoke bench-identity perfbench-check profile ci-local bench-smoke bench-hotpath bench-snapshot bench-mutation bench-peer bench clean

all: check

build:
	dune build @all

test:
	dune runtest

# Static analysis: the domain-safety source lint over every shared
# library and executable, then the spec linter + program verifier over
# all registered targets' specs and seed programs. Both exit non-zero on
# error-severity findings.
lint:
	dune build @all
	dune exec bin/domain_lint.exe -- lib bin bench test
	dune exec bin/nyx_net_fuzz.exe -- lint --all-targets

# Tier-1 verify: exactly what .github/workflows/ci.yml runs (build-test
# job = build + tests + sanitized tests + smoke benches + profile;
# lint job = the lint suite). Build + tests, the lint suite, the test
# suite again under the interpreter sanitizer (NYX_SANITIZE asserts the
# verifier's facts at runtime; --force because dune does not track env
# vars), both smoke benches asserted crash-free under NYX_DOMAINS=4
# (hotpath additionally fails if the before/after gears diverge or the
# speedup drops below 2x), the static-vs-dynamic conformance gate, the
# CLI's checkpoint resume and NYX_FAULTS handling, traced peer runs,
# sanitized CLI campaigns, the paper tables' NYX_DOMAINS identity, and
# the host-time benchmark's output checks. The smoke benches write under bench_out/ and leave the
# committed BENCH_parallel.json and BENCH_hotpath.json (bench-smoke,
# bench-hotpath) alone: the tree stays clean.
check:
	dune build @all && dune runtest
	$(MAKE) lint
	NYX_SANITIZE=1 dune runtest --force
	NYX_DOMAINS=4 dune exec bench/main.exe -- parallel_smoke --budget 1 --sync-ms 100 -o bench_out/BENCH_parallel.json
	NYX_DOMAINS=4 dune exec bench/main.exe -- hotpath -o bench_out/BENCH_hotpath.json
	$(MAKE) bench-snapshot
	$(MAKE) bench-mutation
	$(MAKE) bench-peer
	$(MAKE) faultcheck
	$(MAKE) statecheck
	$(MAKE) resume-smoke
	$(MAKE) faults-env-smoke
	$(MAKE) trace-smoke
	$(MAKE) sanitize-smoke
	$(MAKE) bench-identity
	$(MAKE) perfbench-check

# Fault-injection smoke campaign (lib/resilience): runs a full campaign
# with every fault site armed at 2%, asserts zero aborted faults (every
# injection recovered via the recreate-on-demand path), bit-identical
# same-seed results, and the fleet supervisor's restart/quarantine
# behaviour; writes FAULTCHECK.json.
faultcheck:
	dune build @all
	dune exec bench/main.exe -- faultcheck

# Static-vs-dynamic conformance gate (lib/analysis): for every registry
# target, seeds plus deterministic mutants are probed densely and every
# observed state boundary must be statically feasible; a sanitized
# shadow-hash pass asserts no boundary escapes the static prior. Fails
# on any violation; writes STATECHECK.json (residue = feasible-but-
# unobserved indices is reported, not gated).
statecheck:
	dune build @all
	dune exec bench/main.exe -- statecheck

# The CLI resumes its own checkpoint to the same result: a dynamic,
# typed-engine, peer-mode campaign with every encoder fault armed writes
# a checkpoint (policy, snapshot-engine, mutation, peer and fault-plan
# state) at about 4 of its 6 virtual seconds; `resume` on that file must
# print exactly what the straight run printed.
RESUME_SMOKE = fuzz lightftp -p dynamic --engine typed --mode peer --peer-faults all:0.5 -b 6 -s 7

resume-smoke:
	dune build @all
	T=$$(mktemp -d) && trap 'rm -rf "$$T"' EXIT && \
	dune exec bin/nyx_net_fuzz.exe -- $(RESUME_SMOKE) --checkpoint $$T/ckpt --checkpoint-interval 4 > $$T/straight.out && \
	dune exec bin/nyx_net_fuzz.exe -- resume lightftp $$T/ckpt > $$T/resumed.out && \
	diff $$T/straight.out $$T/resumed.out

# The CLI's `fuzz` reads NYX_FAULTS as the default of --faults (library
# campaigns never read it): a malformed value must fail the run rather
# than let it go silently fault-free, a valid one must arm the plan, the
# flag must win over the variable, and baseline fuzzers must ignore it.
FUZZ = dune exec bin/nyx_net_fuzz.exe -- fuzz echo -b 1

faults-env-smoke:
	dune build @all
	T=$$(mktemp -d) && trap 'rm -rf "$$T"' EXIT && \
	if NYX_FAULTS=nonsense $(FUZZ) > $$T/out 2> $$T/err; then echo "malformed NYX_FAULTS accepted"; exit 1; fi && \
	{ grep -q 'bad NYX_FAULTS spec' $$T/err || { cat $$T/err; echo "no NYX_FAULTS error"; exit 1; }; } && \
	{ NYX_FAULTS=wedge:0.5 $(FUZZ) | grep -q '^faults:' || { echo "NYX_FAULTS did not arm the plan"; exit 1; }; } && \
	{ NYX_FAULTS=nonsense $(FUZZ) --faults wedge:0.5 | grep -q '^faults:' || { echo "--faults did not override NYX_FAULTS"; exit 1; }; } && \
	{ NYX_FAULTS=nonsense $(FUZZ) -f aflnet > /dev/null || { echo "a baseline read NYX_FAULTS"; exit 1; }; }

# A traced peer campaign prints what the untraced one prints, and every
# fired encoder fault leaves one "peer-fault" trace instant with its
# detail: fault details are formatted only while a trace sink is on, so
# this run is the one that exercises that path.
TRACE_SMOKE = fuzz lightftp --mode peer --peer-faults all:0.5 -b 6 -s 7

trace-smoke:
	dune build @all
	T=$$(mktemp -d) && trap 'rm -rf "$$T"' EXIT && \
	dune exec bin/nyx_net_fuzz.exe -- $(TRACE_SMOKE) > $$T/plain.out && \
	NYX_TRACE=$$T/trace.jsonl dune exec bin/nyx_net_fuzz.exe -- $(TRACE_SMOKE) > $$T/traced.out && \
	{ diff $$T/plain.out $$T/traced.out || { echo "trace-smoke: tracing changed stdout"; exit 1; }; } && \
	fired=$$(sed -n 's/.* \([0-9][0-9]*\) encoder faults fired.*/\1/p' $$T/plain.out) && \
	instants=$$(grep -c '"ev":"peer-fault"' $$T/trace.jsonl || true) && \
	{ [ -n "$$fired" ] && [ "$$fired" = "$$instants" ] || { echo "trace-smoke: $$instants peer-fault instants, $$fired encoder faults fired"; exit 1; }; } && \
	{ ! grep '"ev":"peer-fault"' $$T/trace.jsonl | grep -q '"detail":""' || { echo "trace-smoke: a peer-fault instant has an empty detail"; exit 1; }; }

# Sanitized CLI campaigns print exactly what plain ones print. Under
# NYX_SANITIZE every netemu restore re-marshals the state and compares
# it with the captured image, and the interpreter asserts the verifier's
# facts; these campaigns give both real traffic: template sockets
# closed, switches between root and incremental restores, and the
# recovery restores of a faulted run.
SANITIZE_SMOKE = \
	"fuzz lightftp -b 3 -s 7" \
	"fuzz dnsmasq -b 3 -s 7" \
	"fuzz lightftp --mode peer --peer-faults all:0.5 -b 3 -s 7" \
	"fuzz lightftp --faults all:0.05 -b 3 -s 7" \
	"fuzz pure-ftpd -p dynamic --engine typed -b 3 -s 7"

sanitize-smoke:
	dune build @all
	T=$$(mktemp -d) && trap 'rm -rf "$$T"' EXIT && \
	for args in $(SANITIZE_SMOKE); do \
	  dune exec bin/nyx_net_fuzz.exe -- $$args > $$T/plain.out && \
	  NYX_SANITIZE=1 dune exec bin/nyx_net_fuzz.exe -- $$args > $$T/sanitized.out && \
	  { diff $$T/plain.out $$T/sanitized.out || { echo "sanitize-smoke: NYX_SANITIZE changed the output of: $$args"; exit 1; }; } || exit 1; \
	done

# NYX_DOMAINS must not change the bench tables: the paper tables (on a
# small budget) and Table 4 (level 1-1) run on 1 domain and on 2, and
# their stdouts, minus the [csv] path lines, and every CSV must match.
IDENTITY_PAPER = NYX_BENCH_BUDGET_S=2 NYX_BENCH_MAX_EXECS=2000 NYX_BENCH_REPS=2 dune exec bench/main.exe -- table1 table2 table3 table5 fig5
IDENTITY_MARIO = NYX_BENCH_MARIO=1-1 dune exec bench/main.exe -- table4

bench-identity:
	dune build @all
	T=$$(mktemp -d) && trap 'rm -rf "$$T"' EXIT && \
	for d in 1 2; do \
	  NYX_DOMAINS=$$d NYX_BENCH_OUT=$$T/paper$$d $(IDENTITY_PAPER) > $$T/paper$$d.raw && \
	  NYX_DOMAINS=$$d NYX_BENCH_OUT=$$T/mario$$d $(IDENTITY_MARIO) > $$T/mario$$d.raw && \
	  grep -v '\[csv\]' $$T/paper$$d.raw > $$T/paper$$d.out && \
	  grep -v '\[csv\]' $$T/mario$$d.raw > $$T/mario$$d.out || exit 1; \
	done && \
	diff $$T/paper1.out $$T/paper2.out && diff -r $$T/paper1 $$T/paper2 && \
	diff $$T/mario1.out $$T/mario2.out && diff -r $$T/mario1 $$T/mario2

# Output checks of the host-time benchmark (perfbench/): crash replay,
# same-seed passes, checkpoint round-trips, traced == untraced, fleets
# on 2 domains == 1, and (typed-dynamic --trace 1 only) resume from a
# mid-run checkpoint == the straight run. nyxbench exits 0 even when a
# check fails, so each run's last stdout line, one JSON object, must
# report "correct": true and "failed": 0.
PERFBENCH_VERDICT = python3 -c 'import json, sys; lines = sys.stdin.readlines(); sys.stdout.writelines(lines); r = json.loads(lines[-1]); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "perfbench: correct=%s failed=%s" % (r["correct"], r["failed"]))'

perfbench-check:
	python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 | $(PERFBENCH_VERDICT)
	python3 perfbench/run.py --workload typed-dynamic --seed 1 --seconds 1 --trace 1 | $(PERFBENCH_VERDICT)

# Per-phase snapshot-cost profiles (lib/obs): a short profiled campaign
# per flagship target, table on stdout, JSON artifact next to the
# BENCH_*.json files.
profile:
	dune build @all
	dune exec bin/nyx_net_fuzz.exe -- profile echo -b 10 -s 7 -o PROFILE_echo.json
	dune exec bin/nyx_net_fuzz.exe -- profile lightftp -b 10 -s 7 -o PROFILE_lightftp.json

# Everything CI runs, locally, in CI's order.
ci-local:
	$(MAKE) check
	$(MAKE) profile

# Shared-corpus fleet scaling bench on the full multi-second budget:
# synced fleets at N in {2,4}, 1 domain vs N, deterministic
# work/makespan speedup gated at >= 0.7*N, parallel==sequential
# asserted, corpus-dedup experiment included; writes BENCH_parallel.json.
bench-smoke:
	NYX_BENCH_SCALE_GATE=0.7 dune exec bench/main.exe -- parallel_smoke

# Coverage-bound hot-loop bench: journaled coverage + O(1) scheduling vs
# the before-style full-scan paths; writes BENCH_hotpath.json.
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# The three coverage-gate matrices share one (target x arm) runner in
# bench/main.ml. Each always enforces its gate and fails when the claim
# holds on fewer targets than required. All run on the virtual clock, so
# every BENCH file and verdict is reproducible bit-for-bit.
#
# Snapshot placement matrix: all four policies across protocol-diverse
# targets, scored by virtual time-to-coverage; the gate fails unless the
# dynamic policy strictly beats the best static policy on at least half
# the matrix (and the static probe prior hashes strictly fewer indices
# on at least half). Writes BENCH_snapshot.json.
bench-snapshot:
	dune exec bench/main.exe -- snapshot_matrix

# Mutation-engine matrix: havoc vs typed (splice + generate) across the
# protocol targets, scored by executions-to-coverage on the exec-keyed
# timeline; the gate fails unless the typed engine reaches the per-target
# frontier within the havoc engine's exec count on at least half the
# matrix. Writes BENCH_mutation.json.
bench-mutation:
	dune exec bench/main.exe -- mutation_matrix

# Peer-vs-bytecode matrix: --mode peer campaigns (scripted peer with
# encoder faults armed) vs bytecode campaigns at the same seed/budget on
# lightftp, tinydtls and mysql-client; the gate fails unless peer mode
# finds strictly more unique edges or a peer-only crash kind on at least
# 2 of the 3 targets. Also asserts peer determinism and zero aborted
# encoder faults. Writes BENCH_peer.json.
bench-peer:
	dune exec bench/main.exe -- peer_matrix

# The full paper evaluation (slow).
bench:
	dune exec bench/main.exe -- all

clean:
	dune clean
