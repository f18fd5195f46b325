#!/bin/sh
# Tier-1+ correctness gate: build, vet, domain-aware static analysis
# (cmd/scilint), then the full test suite under the race detector.
# Run from anywhere inside the repo; exits non-zero on the first
# failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Every Go file is gofmt-clean, except the lint fixtures, which pin
# both spellings of the //unit: directive on purpose.
echo "==> gofmt -l (all but internal/lint/testdata)"
unformatted=$(find . -name '*.go' -not -path './internal/lint/testdata/*' -exec gofmt -l {} +)
test -z "$unformatted" || { echo "check: not gofmt-clean:" >&2; echo "$unformatted" >&2; exit 1; }

echo "==> scilint ./..."
go run ./cmd/scilint ./...

# The linter lints itself: the flow analyzers (CFG builder, dataflow
# engine, taint propagation) are exactly the kind of fixpoint code
# where a leaked lock or nondeterministic map range would be embarrassing.
echo "==> scilint self-lint (./cmd/... ./internal/lint/...)"
go run ./cmd/scilint ./cmd/... ./internal/lint/...

echo "==> go test -race ./..."
go test -race ./...

# The engine's virtual timeline must not depend on how the dispatcher,
# the worker pool and a cancel interleave, under either Runtime value:
# give each gate run five schedules of those tests, not one.
echo "==> engine interleaving stress (-race -count=5 Dataflow/RunContext/StageComplete)"
go test -race -count=5 -run 'Dataflow|RunContext|StageComplete' ./internal/engine

# What the campaign product store rests on, three schedules each: the
# every-staged-byte golden, the finished-campaign footprint (the store
# dies with Execute; a record pins one copy of a shared rendering), the
# Status poll beside a running adaptive campaign, and the lattice /
# Subset independence contracts.
echo "==> product store contracts (-race -count=3 Artifacts/Footprint/Status/Subset)"
go test -race -count=3 -run 'Artifacts|Footprint|Status|Subset' ./internal/core ./internal/campaign ./internal/grid

# Focused re-run of the kernel contracts outside the cached suite:
# the per-pose score and search-trajectory digests, the candidate walk
# on both sides of the fine-cell gate (PackedSpans, ./internal/dock),
# the 0-ULP batched-kinematics pin, the fast-path tolerance envelopes,
# the 0-ULP window gather, and the two pins of Vina's incremental
# evaluator: its docks equal the full-walk oracle's bit for bit, and a
# torsion probe leaves every atom outside its branch bit-identical.
echo "==> kernel contract smoke (ScoreGolden/TrajectoryGolden/PackedSpans/FastPath/TorsionsBatch/WindowScoreBatch/IncrementalMatchesFullWalk/TorsionProbeLeavesRest)"
go test -run 'ScoreGolden|TrajectoryGolden|PackedSpans|FastPath|TorsionsBatch|WindowScoreBatch|IncrementalMatchesFullWalk|TorsionProbeLeavesRest' -count=1 \
	./internal/chem ./internal/dock ./internal/dock/vina ./internal/dock/ad4

echo "==> kernel benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x \
	./internal/grid ./internal/dock \
	./internal/dock/tables ./internal/dock/vina ./internal/dock/ad4

# The large-pair windowed kernels run through dedicated benchmarks so
# the L2-overflow workload's window path is exercised end to end.
echo "==> large-pair window kernel smoke (-benchtime=1x)"
go test -run '^$' -bench 'WindowScoreBatch.*Large' -benchtime=1x \
	./internal/dock/vina ./internal/dock/ad4

# The synthetic dataset generator must be deterministic: two
# generations into fresh directories are byte-identical, including the
# -large L2-overflow pair.
echo "==> gendata determinism (two generations byte-identical)"
gen_a=$(mktemp -d) && gen_b=$(mktemp -d)
go run ./cmd/gendata -out "$gen_a" -receptors 3 -ligands 2 -large
go run ./cmd/gendata -out "$gen_b" -receptors 3 -ligands 2 -large
diff -r "$gen_a" "$gen_b" || { echo "check: gendata output differs between runs" >&2; exit 1; }
rm -rf "$gen_a" "$gen_b"

# The archived reference run is what this tree prints: every table and
# figure regenerates deterministically (~1 min, the Table 3 docking
# really runs), so a change that moves chemistry or virtual time and
# forgets results_reference.txt and EXPERIMENTS.md fails here.
echo "==> results_reference.txt is current (dockbench -exp all)"
ref=$(mktemp)
go run ./cmd/dockbench -exp all >"$ref"
diff "$ref" results_reference.txt || { echo "check: dockbench -exp all differs from results_reference.txt; regenerate it and EXPERIMENTS.md's quoted numbers" >&2; exit 1; }
rm -f "$ref"

echo "==> provenance store benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x ./internal/prov

# End-to-end serve smoke: start the resident campaign service, submit
# a tiny campaign over HTTP, poll it to completion, then SIGTERM and
# require a clean drain. Exercises the same code path as production:
# real sockets, real signals, real shutdown ordering.
echo "==> campaign service serve smoke (scidock -serve)"
go build -o /tmp/scidock-check ./cmd/scidock
servelog=$(mktemp)
/tmp/scidock-check -serve 127.0.0.1:0 >"$servelog" 2>&1 &
servepid=$!
trap 'kill "$servepid" 2>/dev/null || true; rm -f "$servelog" /tmp/scidock-check' EXIT
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^scidock: serving campaign API on //p' "$servelog")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "check: serve smoke: server never reported its address" >&2; cat "$servelog" >&2; exit 1; }
id=$(curl -sf -X POST "http://$addr/campaigns" \
	-d '{"mode":"ad4","receptors":2,"ligands":1,"cores":4,"effort":"smoke","seed":7,"disable_failures":true}' \
	| sed -n 's/.*"id": \([0-9]*\).*/\1/p')
[ -n "$id" ] || { echo "check: serve smoke: submit returned no id" >&2; exit 1; }
state=""
for _ in $(seq 1 600); do
	state=$(curl -sf "http://$addr/campaigns/$id" | sed -n 's/.*"state": "\([A-Z]*\)".*/\1/p')
	case "$state" in DONE|FAILED|CANCELLED) break ;; esac
	sleep 0.1
done
[ "$state" = DONE ] || { echo "check: serve smoke: campaign ended in state '$state', want DONE" >&2; exit 1; }
curl -sf -X POST "http://$addr/campaigns/$id/query?sql=SELECT%20count(*)%20FROM%20ddocking" \
	| grep -q '"rows"' || { echo "check: serve smoke: provenance query failed" >&2; exit 1; }
kill -TERM "$servepid"
wait "$servepid" || { echo "check: serve smoke: server exited non-zero after SIGTERM" >&2; cat "$servelog" >&2; exit 1; }
grep -q "shutdown complete" "$servelog" || { echo "check: serve smoke: no clean shutdown" >&2; cat "$servelog" >&2; exit 1; }
trap - EXIT
rm -f "$servelog" /tmp/scidock-check

echo "check: all gates passed"
