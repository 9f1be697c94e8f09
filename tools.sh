#!/bin/sh
# tools.sh — repository hygiene gate.
#
# Runs the static checks, the race-enabled test suite, and the
# observability smoke test. CI and pre-commit should both call this;
# it exits non-zero on the first failure.
#
#   ./tools.sh          # vet + gofmt + retired guard + bench module + APSP byte identity + solve, admission, clone and validate-and-price allocation budgets, the solve digest, stage-two engine parity and walker parity + race tests + two fuzz smokes (KMB sweep, MOD chain search) + chaos + recover + conformance + obs + queue + load
#   ./tools.sh quick    # vet + gofmt + retired guard + bench module + APSP byte identity + the solve, admission, clone and validate-and-price allocation budgets, the solve digest, stage-two engine parity and walker parity + the WAL's non-Linux sync fallback cross-compiled (skip the race run and smoke)
#   ./tools.sh queue    # admission-queue gate only: the queue package
#                       # five times under -race at -cpu 1,2,4
#                       # (equivalence battery: idle, held and trickle
#                       # scripts at 1, 2 and 4 solvers bit-identical
#                       # to serialized same-order admits; forced-stale
#                       # and forced-hit speculation scripts; the
#                       # open-line, run-ahead bound and mid-line
#                       # Close tests; stress
#                       # test mixing enqueue, release, Rebase and WAL
#                       # checkpoints; fuzz seeds; dispatch-rule
#                       # tests), plus the manager's AdmitCtx tests
#                       # (shadow-solve equivalence, cross-call
#                       # coalescing, deadline, lock-holding fallback,
#                       # shared-snapshot race) and the queued HTTP
#                       # admission tests
#   ./tools.sh load     # load gate only: one fixed-seed open-loop
#                       # sftload run against an in-process (queued)
#                       # sftserve, asserting non-zero admissions, zero
#                       # dropped measurements at unsaturated points, a
#                       # live metric-cache hit rate on /metrics and a
#                       # request-ID-stamped trace on /debug/traces
#   ./tools.sh obs      # obs smoke only: build cmds, boot sftserve,
#                       # assert /healthz /readyz /metrics respond and
#                       # /metrics counts the connections that took
#   ./tools.sh chaos    # resilience gate only: a seeded op script of
#                       # admits and faults through the repair path,
#                       # every surviving session re-validated after
#                       # every op
#   ./tools.sh recover  # durability gate only: the same kind of op
#                       # script with SIGKILL-equivalent crashes (one
#                       # inside the commit critical section), each
#                       # followed by a WAL restore, stepped in lockstep
#                       # with a never-crashed oracle; fails on any lost
#                       # committed session, oracle divergence or check
#                       # failure after any op. Also runs the script
#                       # runner's crash tests, the WAL's power-loss
#                       # test (what a lost page cache leaves past the
#                       # last synced frame) and the server's crash
#                       # under concurrent HTTP admissions under -race.
#   ./tools.sh conformance [seed]
#                       # differential gate only: bounded stratified
#                       # corpus under -race, cross-checking every
#                       # solver through the shared validator. The seed
#                       # (default 1) makes failures reproduce
#                       # byte-for-byte: rerun with the printed seed.

set -eu

cd "$(dirname "$0")"

# run_matching FLAGS PATTERN PKG... runs go test FLAGS -run PATTERN over
# the packages, after failing if PATTERN selects no test in one of them:
# go test passes a -run that matches nothing ("[no tests to run]"), so a
# renamed test would otherwise drop out of its gate unnoticed.
run_matching() {
	flags=$1 pattern=$2
	shift 2
	for pkg in "$@"; do
		listed=$(go test -list "$pattern" "$pkg")
		if ! echo "$listed" | grep -qE '^(Test|Fuzz|Example)'; then
			echo "tools.sh: -run '$pattern' selects no test in $pkg" >&2
			exit 1
		fi
	done
	# shellcheck disable=SC2086 # flags is a word list
	go test $flags -run "$pattern" "$@"
}

# obs_smoke builds every command, boots sftserve on an ephemeral port
# with -debug, and asserts the health, readiness and metrics endpoints
# answer and that the probes' own connections were counted. Uses only
# the Go toolchain — no curl dependency.
obs_smoke() {
	echo "==> go build ./cmd/..."
	tmpdir=$(mktemp -d)
	trap 'rm -rf "$tmpdir"; [ -n "${srv_pid:-}" ] && kill "$srv_pid" 2>/dev/null || true' EXIT
	go build -o "$tmpdir" ./cmd/...

	echo "==> obs smoke: sftserve -debug on 127.0.0.1:0"
	"$tmpdir/sftserve" -listen 127.0.0.1:0 -nodes 12 -debug >"$tmpdir/out.log" 2>&1 &
	srv_pid=$!

	addr=""
	for _ in $(seq 1 50); do
		addr=$(sed -n 's/.*msg="sftserve listening" addr=\([0-9.:]*\).*/\1/p' "$tmpdir/out.log" | head -n1)
		[ -n "$addr" ] && break
		kill -0 "$srv_pid" 2>/dev/null || { echo "sftserve exited early:" >&2; cat "$tmpdir/out.log" >&2; exit 1; }
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "sftserve never reported a listen address:" >&2
		cat "$tmpdir/out.log" >&2
		exit 1
	fi

	for path in /healthz /readyz /metrics /debug/vars; do
		"$tmpdir/sftcheck" -url "http://$addr$path" || {
			echo "obs smoke: GET $path failed" >&2
			cat "$tmpdir/out.log" >&2
			exit 1
		}
		echo "    GET $path ok"
	done
	opened=$("$tmpdir/sftcheck" -url "http://$addr/metrics" -print |
		sed -n 's/.*"http_connections_opened_total": *\([0-9][0-9]*\).*/\1/p' | head -n1)
	if [ "${opened:-0}" -lt 1 ]; then
		echo "obs smoke: /metrics shows no http_connections_opened_total after the probes" >&2
		exit 1
	fi
	echo "    http_connections_opened_total = $opened"

	kill "$srv_pid"
	wait "$srv_pid" 2>/dev/null || true
	srv_pid=""
	echo "OK (obs smoke)"
}

# chaos_gate runs the seeded acceptance script (30 admits, then 20
# faults) through the repair path. sftchaos exits non-zero when any
# non-degraded session fails a check after any op, or when repairs
# never reuse a surviving instance.
chaos_gate() {
	echo "==> chaos gate: sftchaos -nodes 40 -sessions 30 -faults 20 -seed 7"
	go run ./cmd/sftchaos -nodes 40 -sessions 30 -faults 20 -seed 7
	echo "OK (chaos gate)"
}

# conformance_gate runs the differential harness on a bounded corpus
# under the race detector: every instance solved by brute force, ILP,
# the two-stage algorithm and the baselines, all cross-checked through
# internal/conformance. Deterministic: the same seed reproduces the
# same corpus, solver calls, and fault schedules.
conformance_gate() {
	seed="${1:-1}"
	echo "==> conformance gate: sftconform -n 45 -seed $seed (race)"
	go run -race ./cmd/sftconform -n 45 -seed "$seed" -q
	echo "OK (conformance gate, seed $seed)"
}

# recover_gate is the crash-injection durability gate: one seeded
# script of admissions, releases, faults, checkpoints and crashes steps
# a never-crashed oracle and a WAL-backed crash run in lockstep — a
# torn crash (partial frame at the active tail) crashed again one op
# later (the double-crash window: the tear must not survive the first
# recovery on disk), plus one mid-commit crash (between WAL append and
# in-memory apply) that must fire. After every op the crash run must
# keep every committed session, match the oracle bit-for-bit in
# sessions, refcounts and accounting, and pass CheckLive, the walk
# check, the flow replay and VerifyRefs. The race-enabled runner tests
# cover the same paths with the in-tree assertions, the gate's shape
# at ten seeds included. All of those are process kills, which keep
# every byte written; the WAL's power-loss test overwrites what follows
# the last synced frame with each tail a lost page cache can leave. The
# server's crash test kills the log after the 40th acked HTTP admission
# of eight concurrent clients and requires the restore to hold every
# acked, unreleased session and nothing else.
recover_gate() {
	echo "==> recover gate: sftchaos -crash 2 -nodes 30 -sessions 12 -ops 30 -faults 5 -seed 7"
	go run ./cmd/sftchaos -crash 2 -nodes 30 -sessions 12 -ops 30 -faults 5 -seed 7
	echo "==> recover gate: script runner crash tests (race)"
	run_matching '-race -count=1' 'TestCrash|TestConsecutiveCrashes|TestRecoverGate' ./internal/sim
	echo "==> recover gate: power loss past the last synced frame (race)"
	run_matching '-race -count=1' 'TestPowerLossKeepsEveryAckedRecord' ./internal/wal
	echo "==> recover gate: crash under concurrent HTTP admissions (race)"
	run_matching '-race -count=3' 'TestCrashUnderConcurrentAdmissions' ./internal/server
	echo "OK (recover gate)"
}

# queue_gate proves the batched admission queue keeps the serialized
# semantics: the equivalence battery replays fixed-seed arrival
# scripts through the queue (enqueued idle, behind a held drain, and
# as a trickle that is drained mid-line, plus a 32-ticket backlog cut
# into one drain or two) and through
# serialized AdmitCtx calls in the queue's recorded dispatch order and
# requires bit-identical sessions, refcounts and accounting; the stress
# test races enqueues against releases, Rebase fault flaps and WAL
# checkpoints; the fuzz seeds pin the never-lose-a-task contract and
# the Stats conservation identity; the work-conservation, open-line,
# per-ticket completion, mid-line Close and orphan tests pin the
# dispatch rules, and the run-ahead bound test holds a parked head's
# line to 2·Workers tickets claimed and unsettled. Every ordering
# property is held at 1, 2 and 4 solvers, and the package runs at
# -cpu 1, 2 and 4: one processor interleaves the solvers of a line at
# their blocking points only; two is the shape where a solver that
# finished ahead of its turn would otherwise idle (results parked on
# the line, settled by whoever commits the head); four let them truly
# overlap. The queue package assembles every line by hook, never by
# sleeping (the run-ahead bound test polls for its parked results and
# then leaves a solver that would pass the bound a short window), so
# it repeats under -race; the server's queued-admission tests and the
# manager's own AdmitCtx tests (the one admission routine, whose two
# halves the queue calls) and its Drain test ride along.
queue_gate() {
	echo "==> queue gate: queue package x5 at -cpu 1,2,4 + AdmitCtx + queued-admission HTTP tests (race)"
	go test -race -count=5 -cpu 1,2,4 ./internal/queue
	run_matching '-race -count=1' 'TestAdmitCtx|TestDrainWaits|TestQueuedAdmit' ./internal/dynamic ./internal/server
	echo "OK (queue gate)"
}

# fuzz_smoke TARGET PKG fuzzes TARGET for 10 s and fails when the last
# progress line counts fewer than 10 000 execs. Minimising a new input
# is capped at 100 runs: Go's default allows 60 s per input, and a
# target whose interesting inputs are large (FuzzOverlayDifferential's
# grow from pretty-printed JSON seeds) then spends the whole window
# minimising, 17 execs in 11 s.
fuzz_smoke() {
	echo "==> fuzz smoke: $1, 10s"
	out=$(go test -run '^$' -fuzz "$1" -fuzztime 10s -fuzzminimizetime 100x "$2" 2>&1) || {
		echo "$out" >&2
		exit 1
	}
	echo "$out"
	execs=$(echo "$out" | grep -oE 'fuzz: elapsed: [^,]*, execs: [0-9]+' | tail -n 1 | sed -E 's/.*execs: //')
	if [ "${execs:-0}" -lt 10000 ]; then
		echo "tools.sh: fuzz smoke $1 ran ${execs:-no} execs in 10 s, fewer than 10000" >&2
		exit 1
	fi
}

# retired_guard keeps what earlier PRs removed removed, by construction
# rather than by review: among internal/dynamic's non-test files only
# ledger.go (apply, loadSnapshotState) may assign to or delete from
# m.refs and m.sessions; the admission routines apply replaced, the
# solver options that selected a second code path, the micro-
# benchmark stack that measured them, the pooled-heap hook of the
# MOD overlay's old Dijkstra, the server's pass-through of the
# queue's worker count, sftload's baseline and A/B throughput gates,
# the fault and crash loops one op script replaced (RunChaos,
# RunCrash, their configs, faults' Replayer and scenario loader), and
# the second copies of the Steiner algorithms (Mehlhorn's routine, its
# SteinerMehlhorn selector, and CostsWithExtraRoot, a second
# Dreyfus-Wagner DP beside DWTable) and stage two's second rule and
# pass cap (LocalAcceptance, MaxOPAPasses, opaPasses: stage two
# repeats until a pass accepts nothing, each move through the global
# gate) and the link copy-bound model with its penalty re-solve loop
# (SolveCapacityAware, ReweightedCopy, LinkViolation, LinkCapacity,
# ErrLinkCapacity, DefaultCapacityRounds, linkCap: core.Solve is the
# one solve entry point) stay gone from every .go file, bench/
# included; internal/server's
# non-test files call no AdmitCtx (POST /v1/sessions has one way in,
# the queue); the stage-one sweep stays one goroutine's loop; and the
# chain search in internal/mod stays a column pass (no heap, no
# shortest-path tree — its test oracle keeps a digraph Dijkstra in
# internal/mod/digraph_test.go —
# and predecessors come from a sorted shortlist, not a heap);
# internal/core's non-test files call no state.cost() (a solve prices
# once, and stage two once per trial move), hold no second cost engine
# (ensureLedger, applyMoveInc, releaseJournal, jrFree) and no DebugOPA
# switch, and internal/obs's no journal_pool_ gauge; internal/core's
# non-test files sort without sort.Slice; the only
# goroutines internal/queue starts are the solvers in New (no per-batch
# runBatch, no go func); and internal/server/client.go closes a
# response body in exactly one place, behind the bounded drain that
# lets the connection be reused; and internal/wal opens no segment
# with O_APPEND (a commit that moves the file size pays a journal
# commit on top of the device flush), its one commit path — Append —
# syncs exactly once, through datasync, and writes only at the tail
# (WriteSnapshot, Close and truncateTail change sizes or names and keep
# the full fsync), and it syncs on the commit path or not at all: no
# interval policy, no sync goroutine, no go statement in its non-test
# files, no snapshot-retention knob;
# runMSA's candidate loop calls no repairCapacity, AppendHostsTo or
# sortCandidates and asks for a chain only once a row has beaten the
# running best (the rest is the overlay's candidate table);
# internal/steiner/sweep.go holds no tIn/inTree membership scan; no
# non-test .go file scans a neighbour list for a metric hop
# (cheapestEdgeBetween) or keys Prim on floats (openTerm); and
# the serving binary links only what a controller runs: cmd/sftserve
# depends on at most 15 internal packages, none of them the root
# facade, the exact/ILP stack (lp, ilp, sftilp, exact), the comparison
# baselines, the offline harnesses (sim, forest, topology, trace,
# metrics) or the renderer (viz), and no non-test internal/server file
# registers POST /v1/render (sftembed -svg renders offline); and no
# non-test .go file outside bench/ tunes the garbage collector
# (debug.SetGCPercent, debug.SetMemoryLimit, GOGC, GOMEMLIMIT): what
# the collector costs is cut by allocating less, not by a knob; and
# solver telemetry has one derived form, the span tree: no .go file
# streams or reads JSON lines (JSONLObserver, lineEvent, eventLine,
# parseJSONL) or folds events into a second summary (breakdownOf),
# internal/obs declares no Breakdown type, and cmd/sfttrace has no
# "parse" flag; and the load generator only talks HTTP: cmd/sftload
# imports neither internal/wal nor internal/faults (both stay among its
# transitive deps, through the in-process server) and has no "restart"
# or "faults" flag, and the server's manager is fixed at construction
# (no SetManager hot swap, no mgrMu, no flapper or commit audit); and
# the solver has no knob outside core.Options: no non-test file of
# internal/steiner or internal/core reads an environment variable, and
# the sweep's tree lower bound (sweep.go, moat.go) runs to the end of
# its moat growth with no budget, threshold or cut-off of its own; and
# each serving figure is kept once: the manager's and queue's counters
# live in their Stats and /metrics reads them at scrape time (no
# Manager.observe mirror), and the runtime figures are read from
# runtime/metrics at scrape time too, so no .go file names
# StartRuntimeSampler, sftserve's sample-interval flag or
# runtime_gc_total, internal/obs starts no goroutine, and no non-test
# file outside bench/ stops the world for ReadMemStats; and fault
# repair is patch, then degrade: no non-test .go file names the
# re-embed rung (tryReembed, RepairReembedded) or a private walk over
# an embedding's served instances (traversedKeys, repairedUses,
# isNewInstance), and no non-test internal/dynamic or internal/forest
# file calls ServingNode (nfv.Embedding.AppendServed answers "which
# instances does this embedding use" for admission, repair and the
# forest alike); and Rebase judges every session against the network
# as the fault left it before repairing any, then repairs each damaged
# session along one path: no non-test .go file names the per-session
# judge-and-repair steps it replaced (repairSession, tryPatch,
# mergeEmbedding, finishRepair, containsInt, destNodes), and non-test
# internal/dynamic files call conformance.WalkBroken in exactly one
# place, the judge pass; and no non-test internal/nfv file calls
# Graph.HasEdge (Validate, Cost and ValidateCost are one walk over the
# segments, and each hop it looks up goes through CSR.Arc); and the
# shortest-path metric has one routine at every size, graph.APSP: no
# non-test .go file names the Floyd-Warshall or serial-row routines,
# the cut-offs that chose between them or their ablation (FloydWarshall,
# AllDijkstra, APSPAuto, apspSmallCutoff, apspDenseCutoff, AblationAPSP),
# nor the algorithms only tests called (MSTPrim, BFSHops, NewDigraph):
# the references live in _test.go files; and the admission line has one
# order, earliest deadline first: internal/queue imports no
# internal/mod and no non-test .go file names ChainSig (the queue no
# longer regroups a drain by chain signature); and the client makes one
# round trip per call: no non-test .go file names RetryPolicy,
# WithRetry or DefaultRetryPolicy; and no exported name that only tests
# called is back in a non-test file (NewUnionFind, NumOverlayNodes,
# BestHost, SortedInstanceKeys, LinkIsDown, DownLinks, DownNodes,
# DreyfusWagner, IsNotFound; internal/graph declares no Edge.Other,
# Graph.Neighbors, Graph.Degree, UnionFind.Same or UnionFind.Sets, and
# internal/steiner no Prune): the KMB tests' exact oracle and the
# pruning wrapper live in internal/steiner/helpers_test.go; and solver
# figures reach /metrics one way, through the solve's own events
# bridged once per solve path (the stateless solve's options and
# Manager.Instrument): no non-test .go file keeps a process-global stat
# counter beside them or a name that repeats another figure
# (SweepStats, SFCStats, RecorderPoolStats, RegisterPool, apspHits,
# solver_solves_total — solver_stage2_ms's count —,
# admit_retries_total — admit_commit_conflicts_total —), and sftserve
# polls no checkpoint-dirty flag (NeedsCheckpoint): it checkpoints once
# after Restore, the only Rebase it runs.
retired_guard() {
	if grep -rnE 'os\.(Getenv|LookupEnv|Environ)|syscall\.Getenv' --include='*.go' --exclude='*_test.go' internal/steiner internal/core; then
		echo "retired guard: internal/steiner or internal/core reads an environment variable (every solver setting is a core.Options field)" >&2
		exit 1
	fi
	if grep -niE 'budget|threshold|cut-?off|max(steps|events|passes|scans)' internal/steiner/sweep.go internal/steiner/moat.go; then
		echo "retired guard: the sweep's tree lower bound grew a budget or threshold (it grows every moat until it stops; its work is bounded by the destination pairs, not by a tuned constant)" >&2
		exit 1
	fi
	echo "==> retired guard: one solve entry point, one implementation per Steiner algorithm, stage two has one rule, one form of solver telemetry, no garbage-collector knob, one writer of m.refs / m.sessions, no retired symbols (the chaos and crash loops included), a two-rung repair ladder judged once per fault and one walk over served instances, one admission path in internal/server, one sweep loop, no heap in internal/mod, no state.cost() or sort.Slice in the solve, no incremental cost ledger or journal gauges, no per-batch goroutine in internal/queue, one drained Body.Close in the client, no O_APPEND, no per-commit fsync and no goroutine in internal/wal, no per-row chain work in runMSA, no closed-terminal scan in the KMB sweep, no environment variable read by the solver and no budget in its tree bound, no neighbour scan per metric hop and no float-keyed Prim, one edge lookup in internal/nfv (CSR.Arc), no offline package in sftserve's deps and no /v1/render, a load generator that only talks HTTP, each serving figure kept once (no runtime sampler, no ReadMemStats, no observe()), one commit rule (no re-validation, no deploy epoch, no version stamps in the WAL), one APSP routine at every size and no test-only graph algorithm in the library (no FloydWarshall, AllDijkstra, APSPAuto, apspSmallCutoff, apspDenseCutoff, AblationAPSP, MSTPrim, BFSHops or NewDigraph outside _test.go files), one admission order (EDF, no chain-signature grouping), one round trip per client call (no retry policy), no test-only exported name in internal/ and each solver figure kept once (events bridged per solve path, no process-global stat counters)"
	writers=$(grep -lE 'm\.(refs|sessions)\[.*\](\+\+|--| *[-+]?=[^=])|delete\(m\.(refs|sessions)\b' \
		$(ls internal/dynamic/*.go | grep -v _test.go) | tr '\n' ' ')
	if [ "$writers" != "internal/dynamic/ledger.go " ]; then
		echo "retired guard: m.refs / m.sessions written outside ledger.go: $writers" >&2
		exit 1
	fi
	retired=$(grep -rnE 'AdmitBatch|BatchTask|BatchOutcome|admitSerialized|snapshotCurrent|applyRecord|\bParallelism\b|NaiveRecost|MaxCandidateHosts|benchsuite|OPAPassRunner|DeltaCostRunner|WithHeap|QueueWorkers|gateThroughput|runQueueSpeedup|newSelfWorld|gate-speedup|queue-speedup|RunChaos|RunCrash|ChaosConfig|CrashConfig|NewReplayer|faults\.Load|SyncInterval|syncLoop|stopSyncLoop|KeepSnapshots|Mehlhorn|SteinerMehlhorn|CostsWithExtraRoot|LocalAcceptance|MaxOPAPasses|opaPasses|SolveCapacityAware|ReweightedCopy|LinkViolation|LinkCapacity|ErrLinkCapacity|DefaultCapacityRounds|linkCap|SetManager|mgrMu|pickFlapEdge|auditCommitted|StartRuntimeSampler|sample-interval|runtime_gc_total' --include='*.go' . || true)
	if [ -n "$retired" ]; then
		echo "retired guard: retired symbols are back:" >&2
		echo "$retired" >&2
		exit 1
	fi
	if grep -rnwE 'revalidateLocked|DeployEpoch|BumpDeployEpoch|recountLive' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . ||
		grep -nE '^[[:space:]]*(Gen|Epoch|Incarnation)\b|json:"(gen|epoch|incarnation)[",]' $(ls internal/wal/*.go | grep -v _test.go); then
		echo "retired guard: a commit is judged by something other than the one state test again (re-validation, a deploy epoch, a second CheckLive pass on restore, or a network version stamped into the WAL); settle and takeSnapshot ask nfv.Network.SameState" >&2
		exit 1
	fi
	if grep -n 'AdmitCtx' $(ls internal/server/*.go | grep -v _test.go); then
		echo "retired guard: internal/server admits around the queue again (POST /v1/sessions has one admission path: the queue)" >&2
		exit 1
	fi
	if grep -nE 'go func|WaitGroup|atomic\.' internal/core/msa.go; then
		echo "retired guard: internal/core/msa.go fans out again" >&2
		exit 1
	fi
	if grep -nE 'NodeHeap|ShortestPathTree|container/heap|heapify|siftDown' $(ls internal/mod/*.go | grep -v _test.go); then
		echo "retired guard: internal/mod runs a heap again (the column pass takes predecessors from a sorted shortlist; a heap measured slower)" >&2
		exit 1
	fi
	if grep -nE '\.cost\(\)' $(ls internal/core/*.go | grep -v _test.go); then
		echo "retired guard: internal/core prices a state through state.cost again (it is test-only: a solve prices in stageOne, and stage two once per trial move, each visibly at its call site)" >&2
		exit 1
	fi
	if grep -nE 'ensureLedger|applyMoveInc|releaseJournal|jrFree|DebugOPA' $(ls internal/core/*.go | grep -v _test.go); then
		echo "retired guard: internal/core keeps a second cost engine or a debug switch again (a stage-two trial move is priced by nfv.Cost on its embedding and undone by writing back what applyMove overwrote)" >&2
		exit 1
	fi
	if grep -rn 'ReadMemStats' --include='*.go' --exclude='*_test.go' --exclude-dir=bench . ||
		grep -nE '(^|[{;])[[:space:]]*go[[:space:]]' $(ls internal/obs/*.go | grep -v _test.go) ||
		grep -n 'func (m \*Manager) observe' internal/dynamic/*.go; then
		echo "retired guard: a serving figure is kept twice again (a goroutine in internal/obs, a stop-the-world ReadMemStats outside bench/, or the manager's observe() gauges); /metrics reads Stats and runtime/metrics at scrape time" >&2
		exit 1
	fi
	if grep -n 'journal_pool_' $(ls internal/obs/*.go | grep -v _test.go); then
		echo "retired guard: internal/obs exports move-journal pool gauges again (there is no journal pool)" >&2
		exit 1
	fi
	if grep -n 'sort\.Slice' $(ls internal/core/*.go | grep -v _test.go); then
		echo "retired guard: internal/core sorts through reflection again (slices.SortFunc on a typed key)" >&2
		exit 1
	fi
	if grep -nE 'runBatch|go func' $(ls internal/queue/*.go | grep -v _test.go); then
		echo "retired guard: internal/queue builds a line per batch or spawns per-batch goroutines again (since PR 25 its only goroutines are the Workers solvers New starts)" >&2
		exit 1
	fi
	if [ "$(grep -c 'Body\.Close()' internal/server/client.go)" != 1 ] ||
		! grep -B1 'Body\.Close()' internal/server/client.go | grep -q 'io\.CopyN(io\.Discard, resp\.Body, drainLimit)'; then
		echo "retired guard: internal/server/client.go must close a response body in exactly one place, right after the bounded drain (an unread body costs a TCP connection per call)" >&2
		exit 1
	fi
	if grep -n 'O_APPEND' $(ls internal/wal/*.go | grep -v _test.go); then
		echo "retired guard: internal/wal appends through O_APPEND again (every commit then moves the file size and its sync is a metadata transaction; since PR 26 frames are written at the tail of a preallocated segment)" >&2
		exit 1
	fi
	# runMSA's candidate loop, and the part of it every row runs (up to
	# the test against the running best).
	sweep_loop=$(awk '/^func runMSA\(/,/^}/' internal/core/msa.go | awk '/for _, c := range rows/,0')
	per_row=$(echo "$sweep_loop" | awk '{print} /total >= bestCost/{exit}')
	if [ -z "$sweep_loop" ] || ! echo "$per_row" | grep -q 'total >= bestCost' ||
		echo "$sweep_loop" | grep -nE 'repairCapacity|AppendHostsTo|sortCandidates' ||
		echo "$per_row" | grep -nE 'sw\.chain\('; then
		echo "retired guard: runMSA's candidate loop derives a chain per row again (since PR 28 order, decode, repair and chain price come from the overlay's candidate table, built once per scaffold; the loop re-derives the hosts of improving candidates only)" >&2
		exit 1
	fi
	if grep -nE '\btIn\b|inTree' internal/steiner/sweep.go; then
		echo "retired guard: internal/steiner/sweep.go scans closed terminals again (since PR 28 Prim keeps the open ones packed)" >&2
		exit 1
	fi
	if grep -n 'HasEdge(' $(ls internal/nfv/*.go | grep -v _test.go); then
		echo "retired guard: internal/nfv looks an edge up through Graph.HasEdge again (Validate, Cost and ValidateCost share one walk over the segments, and its one edge lookup is CSR.Arc)" >&2
		exit 1
	fi
	if grep -rnwE 'cheapestEdgeBetween|openTerm' --include='*.go' --exclude='*_test.go' .; then
		echo "retired guard: a metric hop is found by a neighbour scan, or Prim keys on floats, again (a hop is graph.Metric's first arc, read through EachEdge or CSR.Arc, and Prim compares key bits)" >&2
		exit 1
	fi
	commit_path=$(awk '/^func \(l \*Log\) Append\(/,/^}/' internal/wal/wal.go)
	if [ "$(echo "$commit_path" | grep -c 'datasync(l\.f)')" != 1 ] ||
		echo "$commit_path" | grep -nE '\.Sync\(\)|\.Write\(|\.Truncate\('; then
		echo "retired guard: Append in internal/wal/wal.go must sync exactly once, through datasync(l.f), and nothing else (no full fsync, no size change on the commit path)" >&2
		exit 1
	fi
	if grep -nE '^[[:space:]]*go[[:space:]]' $(ls internal/wal/*.go | grep -v _test.go); then
		echo "retired guard: internal/wal starts a goroutine again (a record is synced on the commit path or not at all; group commit belongs to the caller that acks)" >&2
		exit 1
	fi
	serve_deps=$(go list -deps ./cmd/sftserve)
	offline=$(echo "$serve_deps" | grep -xE 'sftree|sftree/internal/(lp|ilp|sftilp|sim|forest|topology|viz|metrics|trace|baseline|exact)' || true)
	internal=$(echo "$serve_deps" | grep -c '^sftree/internal/' || true)
	if [ -n "$offline" ] || [ "$internal" -gt 15 ]; then
		echo "retired guard: cmd/sftserve links offline code again ($internal internal packages, at most 15; offline: $(echo $offline))" >&2
		exit 1
	fi
	if grep -n '/v1/render' $(ls internal/server/*.go | grep -v _test.go); then
		echo "retired guard: internal/server serves /v1/render again (sftembed -svg renders offline)" >&2
		exit 1
	fi
	if grep -rnE 'debug\.SetGCPercent|debug\.SetMemoryLimit|GOGC|GOMEMLIMIT' --include='*.go' --exclude='*_test.go' --exclude-dir=bench .; then
		echo "retired guard: a non-test .go file tunes the garbage collector (a throughput gain must come from allocating less)" >&2
		exit 1
	fi
	if grep -rnwE 'tryReembed|RepairReembedded|traversedKeys|repairedUses|isNewInstance' --include='*.go' --exclude='*_test.go' . ||
		grep -n 'ServingNode(' $(ls internal/dynamic/*.go internal/forest/*.go | grep -v _test.go); then
		echo "retired guard: fault repair grew back its re-embed rung, or a package walks an embedding's served instances by hand again (repair is patch, then degrade; nfv.Embedding.AppendServed lists the served instances)" >&2
		exit 1
	fi
	if grep -rnwE 'repairSession|tryPatch|mergeEmbedding|finishRepair|containsInt|destNodes' --include='*.go' --exclude='*_test.go' . ||
		[ "$(cat $(ls internal/dynamic/*.go | grep -v _test.go) | grep -c 'conformance\.WalkBroken(')" != 1 ]; then
		echo "retired guard: fault repair judges a session after other repairs changed the network, or grew a second repair path (Rebase marks every session's broken walks first, in one place, then repair patches or degrades through rebuild and commitRepair)" >&2
		exit 1
	fi
	if grep -rnE 'JSONLObserver|lineEvent|eventLine|parseJSONL|breakdownOf' --include='*.go' . ||
		grep -n 'type Breakdown' internal/obs/*.go || grep -n '"parse"' cmd/sfttrace/*.go; then
		echo "retired guard: solver events have a second wire form again (a JSON-lines stream, its sfttrace -parse reader or an obs.Breakdown summary); every consumer reads the span tree spansOf builds" >&2
		exit 1
	fi
	if grep -rnwE 'FloydWarshall|AllDijkstra|APSPAuto|apspSmallCutoff|apspDenseCutoff|AblationAPSP|MSTPrim|BFSHops|NewDigraph' --include='*.go' --exclude='*_test.go' .; then
		echo "retired guard: a second all-pairs routine, its size or density cut-off, its ablation or a test-only graph algorithm is back in a non-test file (the metric is graph.APSP at every size; Floyd-Warshall, the serial rows and the digraph are test references)" >&2
		exit 1
	fi
	if go list -f '{{join .Imports "\n"}}' ./internal/queue | grep -x 'sftree/internal/mod' ||
		grep -rnw 'ChainSig' --include='*.go' --exclude='*_test.go' .; then
		echo "retired guard: the admission queue groups a drain by chain signature again (a drain goes to the line in one order: earliest deadline first, no deadline last, ties by arrival)" >&2
		exit 1
	fi
	if grep -rnwE 'RetryPolicy|WithRetry|DefaultRetryPolicy' --include='*.go' --exclude='*_test.go' .; then
		echo "retired guard: server.Client retries again (each call is one round trip; which failures are safe to repeat is the caller's call)" >&2
		exit 1
	fi
	if grep -rnwE 'NewUnionFind|NumOverlayNodes|BestHost|SortedInstanceKeys|LinkIsDown|DownLinks|DownNodes|DreyfusWagner|IsNotFound' --include='*.go' --exclude='*_test.go' . ||
		grep -rnE 'func \([a-z]+ \*?(Edge|Graph|UnionFind)\) (Other|Neighbors|Degree|Same|Sets)\(' --include='*.go' --exclude='*_test.go' internal/graph ||
		grep -rn 'func Prune(' --include='*.go' --exclude='*_test.go' internal/steiner; then
		echo "retired guard: an exported name only tests called is back in a non-test file (test helpers live in _test.go files)" >&2
		exit 1
	fi
	if grep -rnwE 'SweepStats|SFCStats|RecorderPoolStats|RegisterPool|apspHits|NeedsCheckpoint|solver_solves_total|admit_retries_total' --include='*.go' --exclude='*_test.go' .; then
		echo "retired guard: a solver or pool figure is kept twice again (a process-global stat counter in steiner, mod, faults, obs or server, sftserve's checkpoint poll, or a registry name that repeats another); solver figures reach /metrics through the solve's events, bridged once per solve path" >&2
		exit 1
	fi
	if go list -f '{{join .Imports "\n"}}' ./cmd/sftload | grep -xE 'sftree/internal/(wal|faults)' ||
		grep -nE '"(restart|faults)"' cmd/sftload/*.go; then
		echo "retired guard: cmd/sftload reaches past HTTP again (a WAL, a fault state, or a -restart / -faults flag); crashes under load are internal/server's TestCrashUnderConcurrentAdmissions" >&2
		exit 1
	fi
}

# load_gate drives the open-loop load harness for a short fixed-seed
# run with the -check assertions on: sessions must be admitted, no
# measurement may be dropped at an unsaturated point, /metrics must
# show a non-zero metric-cache hit rate, and /debug/traces must hold an
# admission trace stamped with its request ID. The run asserts
# behaviour, not throughput, so it does not need the machine to itself.
load_gate() {
	echo "==> load gate: sftload -rates 25 -duration 3s -check"
	go run ./cmd/sftload -nodes 30 -seed 5 -rates 25 -duration 3s -warmup 1s -hold 1s -check
	echo "OK (load gate)"
}

if [ "${1:-}" = "conformance" ]; then
	conformance_gate "${2:-1}"
	exit 0
fi

if [ "${1:-}" = "load" ]; then
	load_gate
	exit 0
fi

if [ "${1:-}" = "queue" ]; then
	queue_gate
	exit 0
fi

if [ "${1:-}" = "obs" ]; then
	obs_smoke
	exit 0
fi

if [ "${1:-}" = "chaos" ]; then
	chaos_gate
	exit 0
fi

if [ "${1:-}" = "recover" ]; then
	recover_gate
	exit 0
fi

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$fmt" >&2
	exit 1
fi

retired_guard

# bench/ is its own module (BENCHMARK.json's program), so ./... above
# never compiles it: a renamed or removed symbol it uses would surface
# only when the benchmark next runs.
echo "==> bench module: go vet ./... && go test ./..."
(cd bench && go vet ./... && go test ./...)

# The allocation budget of a default solve (at most 30 on the
# benchmark's two solver-bound shapes) is what holds the flat embedding
# and the per-solve scratch in place, and the solve digest is what holds
# every embedding, price bit and stage-one host in place while the
# solver is made faster. The admission budget (a traced manager's admit
# and release on serve_mixed's network and mix: at most 10 kB in 45
# objects) and the clone budget (at most 4 allocations) hold the shared
# configuration tables, the recycled scaffolds and the recycled trace
# recorders in place. All are plain tests that skip themselves under
# -race, so this is where they run uncached. Beside the digest, the
# stage-two parity tests (≈0.4 s) hold runOPAPass to its clone-and-
# recost reference engine, move event for move event and canHost probe
# for probe, so a change to the candidate scan that moves a pick, or
# prunes a host it should not, fails here too. The walker parity test
# holds Validate, Cost and ValidateCost — one pass that skips the hops a
# walk repeats from the previous one — to the per-hop reference in
# internal/nfv/naive_test.go, error text and price bits, broken copies
# of shared segments included; the combined check allocates nothing
# with a warm bitmap.
# APSP's rows run on a GOMAXPROCS-sized worker pool; the byte-identity
# test holds every distance and first arc to the rows run serially, at
# one, two and four workers.
echo "==> APSP byte identity at -cpu 1,2,4: TestAPSPByteIdentical"
run_matching '-count=1 -cpu 1,2,4' 'TestAPSPByteIdentical' ./internal/graph

echo "==> allocation budgets, solve digest, stage-two and walker parity: TestSolveAllocBudget, TestSolveDigest, TestEngineEventParity, TestQuickSolveMatchesReferenceEngine, TestQuickIncrementalMatchesNaive, TestAdmitAllocBudget, TestCloneAllocs, TestValidateCostAllocs, TestQuickWalkerMatchesNaive"
run_matching -count=1 'TestSolveAllocBudget|TestSolveDigest|TestEngineEventParity|TestQuickSolveMatchesReferenceEngine|TestQuickIncrementalMatchesNaive' ./internal/core
run_matching -count=1 'TestAdmitAllocBudget|TestCloneAllocs' ./internal/dynamic ./internal/nfv
run_matching -count=1 'TestValidateCostAllocs|TestQuickWalkerMatchesNaive' ./internal/nfv

# internal/wal picks its sync and preallocation calls by platform; the
# non-Linux file is never compiled by anything above. Standard library
# only, so this works offline.
echo "==> wal fallback: GOOS=darwin go build ./internal/wal ./cmd/sftserve && GOOS=windows go vet ./internal/wal"
GOOS=darwin go build ./internal/wal ./cmd/sftserve
GOOS=windows go vet ./internal/wal

if [ "${1:-}" = "quick" ]; then
	echo "OK (quick)"
	exit 0
fi

echo "==> go test -race -timeout 10m ./..."
go test -race -timeout 10m ./...

# Clones share their configuration tables copy-on-write and are taken
# from several goroutines at once; the isolation test ran above, and
# runs here by name so that a rename cannot drop it from the race run.
echo "==> clone isolation under -race: TestCloneIsolation"
run_matching '-race -count=1' 'TestCloneIsolation' ./internal/nfv

# The seed corpora already ran above as plain tests; ten seconds of
# mutation on top holds the KMB sweep to its textbook oracle on graphs
# nobody wrote down.
fuzz_smoke FuzzSweepDifferential ./internal/steiner

# Likewise the column pass over the MOD overlay, against the stored-arc
# Dijkstra oracle and its own unpruned form.
fuzz_smoke FuzzOverlayDifferential ./internal/mod

chaos_gate

recover_gate

conformance_gate "${CONFORM_SEED:-1}"

obs_smoke

queue_gate

load_gate

echo "OK"
