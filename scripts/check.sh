#!/bin/sh
# Tier-1+ correctness gate: build, vet, domain-aware static analysis
# (cmd/scilint), then the full test suite under the race detector.
# Run from anywhere inside the repo; exits non-zero on the first
# failing stage.
set -eu

cd "$(dirname "$0")/.."

# go test -run exits 0 when its pattern matches no test, so a renamed
# or misspelled test would silently drop out of a focused stage.
# require_tests SELECTOR PACKAGES... fails, naming the alternative,
# unless every |-separated alternative of SELECTOR matches at least one
# Test or Fuzz function that go test -list finds in PACKAGES.
require_tests() {
	sel=$1
	shift
	where="$*"
	listed=$(go test -list "$sel" "$@" | grep -E '^(Test|Fuzz)' || true)
	set -f
	old_ifs=$IFS
	IFS='|'
	for alt in $sel; do
		printf '%s\n' "$listed" | grep -Eq -- "$alt" || {
			echo "check: -run selector alternative '$alt' matches no test in $where" >&2
			exit 1
		}
	done
	IFS=$old_ifs
	set +f
}

# gated_test SELECTOR GO_TEST_ARGS...: go test -run SELECTOR GO_TEST_ARGS
# after require_tests over the ./ package arguments.
gated_test() {
	sel=$1
	shift
	pkgs=""
	for arg in "$@"; do
		case $arg in ./*) pkgs="$pkgs $arg" ;; esac
	done
	# shellcheck disable=SC2086 # pkgs is a space-separated package list
	require_tests "$sel" $pkgs
	go test -run "$sel" "$@"
}

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
unformatted=$(find . -name '*.go' -exec gofmt -l {} +)
test -z "$unformatted" || { echo "check: not gofmt-clean:" >&2; echo "$unformatted" >&2; exit 1; }

echo "==> scilint ./..."
go run ./cmd/scilint ./...

# Each stage that runs tests names a -timeout of at least 2.5x its
# measured run time (CHANGES.md lists them). A leaked lock or a lost
# wake-up hangs a test rather than failing it, and go test's default
# waits ten minutes per package before it names the test. The timeout
# bounds each package's test binary, so internal/core (1.5-3.5 min
# under -race, TestSweepAnchors most of it) gets its own, run last, and
# every other package the next slowest one's (internal/dock/vina,
# under 1.5 min). internal/engine runs first and alone: eight packages
# drive campaigns through it, so a lock bug there hangs each of them
# to its own bound, and the gate should stop at the engine's.
echo "==> go test -race (-timeout 4m; internal/engine first; internal/core -timeout 9m)"
go test -race -timeout 4m ./internal/engine
# shellcheck disable=SC2046 # go list prints one import path per line
go test -race -timeout 4m $(go list ./... | grep -vx 'repro/internal/core\|repro/internal/engine')
go test -race -timeout 9m ./internal/core

# Every parser of bytes from outside the process has a native fuzz
# target, FuzzQuery holds the SQL planner to the reference executor, and
# FuzzAppendFixed holds the text renderers' fixed-point formatter to fmt.
# go test already ran their checked-in seeds; 3 s each (under a minute
# in all, cold build included) explores past them. A crash fails the
# gate and leaves its input under the package's testdata/fuzz/: fix
# the bug and keep the input as a regression seed.
echo "==> fuzz smoke (3 s per target, -timeout 60s)"
for target in \
	internal/prov:FuzzQuery internal/prov:FuzzLoadDB \
	internal/chem/formats:FuzzSDF internal/chem/formats:FuzzPDB \
	internal/chem/formats:FuzzMol2 internal/chem/formats:FuzzPDBQT \
	internal/chem/formats:FuzzDLG internal/grid:FuzzParseMap \
	internal/workflow/spec:FuzzParse internal/prep:FuzzParamFiles \
	internal/textio:FuzzAppendFixed; do
	require_tests "^${target#*:}\$" "./${target%%:*}"
	go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 3s -fuzzminimizetime 1s -timeout 60s "./${target%%:*}"
done

# The engine's virtual timeline must not depend on how the dispatcher,
# the worker pool and a cancel interleave, under either Runtime value:
# give each gate run five schedules of those tests, not one.
echo "==> engine interleaving stress (-race -count=5 -timeout 60s Dataflow/RunContext/StageComplete)"
gated_test 'Dataflow|RunContext|StageComplete' -race -count=5 -timeout 60s ./internal/engine

# What the campaign product store rests on, three schedules each: the
# every-staged-byte golden, the finished-campaign footprint (the store
# dies with Execute; a record pins one copy of a shared rendering), the
# Status poll beside a running adaptive campaign, and the lattice /
# Subset independence contracts; and the Manager driven by a seeded
# random mix of calls from several goroutines, which must leave every
# campaign in one terminal state and no token, account or goroutine.
echo "==> product store contracts (-race -count=3 -timeout 3m Artifacts/Footprint/Status/Subset/Interleaving)"
gated_test 'Artifacts|Footprint|Status|Subset|Interleaving' -race -count=3 -timeout 3m ./internal/core ./internal/campaign ./internal/grid

# The one bounded fan-out (parallel.For) and the four loops on it:
# every index once, one goroutine per scratch value, the lowest-index
# failure, tokens back; Vina's chains and AD4's runs identical for any
# worker count and a panicking unit an error; AutoGrid's slabs and the
# sweep's points identical for any worker count. Three schedules each.
echo "==> bounded fan-out (-race -count=3 -timeout 60s For/DockWorkersDeterministic/DockWorkerPanicIsAnError/GenerateDeterministicAcrossWorkers/PerfSweepEqualsSinglePoints)"
gated_test 'TestFor|TestDockWorkersDeterministic|TestDockWorkerPanicIsAnError|TestGenerateDeterministicAcrossWorkers|TestPerfSweepEqualsSinglePoints' -race -count=3 -timeout 60s \
	./internal/parallel ./internal/dock/vina ./internal/dock/ad4 ./internal/grid ./internal/core

# Lock release on the paths no other test drives: each test runs one
# such path and then asserts with TryLock that the mutex is free. The
# rest of the suite catches every other deleted or misplaced Unlock by
# failing or hanging. No analyzer stands behind these, so a leak that
# comes back must fail here in seconds.
echo "==> lock release (-race -count=3 -timeout 60s QueryUnknownTableReleasesLock/ReadersReleaseLock/ShutdownPastDeadlineReleasesLock)"
gated_test 'TestQueryUnknownTableReleasesLock|TestReadersReleaseLock|TestShutdownPastDeadlineReleasesLock' -race -count=3 -timeout 60s \
	./internal/prov ./internal/campaign

# Focused re-run of the kernel contracts outside the cached suite:
# the per-pose score and search-trajectory digests, the receptor
# neighbour walk of map generation and Vina (PackedSpans, ./internal/dock),
# a torsion turn leaving every atom outside its branch bit-identical,
# the tree of frames within 1e-9 Å of the sequential torsion walk and
# its frames equal to the rigid units (FramesMatchWalk,
# FrameOwnerIsRigidUnit, ./internal/chem), every column of map
# generation's interleaved rows equal to its table's At2 bit for bit
# (RowMatchesTables), every lattice node its float64 sum rounded once
# to float32 and AD4's Score on those lattices within the rounding
# bound of Score on the sums (LatticeRoundsFloat64SumOnce),
# and the pins of Vina's gradient: its energy is Score's bit for bit,
# its pose gradient matches central differences, At2D's value is
# At2's and At2DOctave's value and slope are At2D's, and every mode a dock reports carries its pose's Score; and
# the receptor invariants: shuffling the receptor's atoms (both
# engines) or moving receptor and pose together (Vina) moves Score
# only by rounding.
echo "==> kernel contract smoke (-timeout 60s ScoreGolden/TrajectoryGolden/PackedSpans/TorsionProbeLeavesRest/FramesMatchWalk/FrameOwnerIsRigidUnit/RowMatchesTables/LatticeRoundsFloat64SumOnce/EnergyGradMatchesScore/PoseGradientMatchesCentralDifference/At2DMatchesAt2/At2DOctaveMatchesAt2D/DockReportsScore/ReceptorOrderIndependence/JointRigidMotion)"
gated_test 'ScoreGolden|TrajectoryGolden|PackedSpans|TorsionProbeLeavesRest|FramesMatchWalk|FrameOwnerIsRigidUnit|RowMatchesTables|LatticeRoundsFloat64SumOnce|EnergyGradMatchesScore|PoseGradientMatchesCentralDifference|At2DMatchesAt2|At2DOctaveMatchesAt2D|DockReportsScore|ReceptorOrderIndependence|JointRigidMotion' -count=1 -timeout 60s \
	./internal/chem ./internal/dock ./internal/dock/vina ./internal/dock/ad4 ./internal/dock/tables

# Every pair term of both scorers is one inlined Radial.At2 (map
# generation reads one interned tables.Row per receptor type instead:
# Row.AddAt2 finds a hit's bin once and interpolates every probe,
# elec and desolv column from one node-interleaved row), and every
# receptor hit and intramolecular pair of Vina's gradient pass from
# RMin² on one inlined Radial.At2DOctave. Both
# costs sit at or near the compiler's budget, so an edit that pushes
# one over would turn each term into a call unnoticed: require both to
# be inlinable, and the gradient pass's two call sites to inline it.
echo "==> Radial.At2 and Radial.At2DOctave stay inlinable"
inl=$(go build -gcflags=-m ./internal/dock/tables 2>&1)
for fn in At2 At2DOctave; do
	printf '%s\n' "$inl" | grep -q "can inline (\\*Radial)\\.$fn\$" ||
		{ echo "check: tables.(*Radial).$fn is no longer inlinable (go build -gcflags=-m ./internal/dock/tables)" >&2; exit 1; }
done
sites=$(go build -gcflags=-m ./internal/dock/vina 2>&1 | grep -c 'score.go:.*inlining call to tables.(\*Radial).At2DOctave' || true)
[ "$sites" -eq 2 ] ||
	{ echo "check: internal/dock/vina/score.go inlines tables.(*Radial).At2DOctave at $sites sites, want 2 (go build -gcflags=-m ./internal/dock/vina)" >&2; exit 1; }

# The digests must not depend on the CPU's fused multiply-add. amd64's
# math.Exp is assembly that branches on it, so every exponential on the
# exact path (table nodes, cost draws, Vina's Metropolis test) is
# fmath.Exp; re-run the goldens with the feature masked to hold that.
echo "==> goldens without FMA (GODEBUG=cpu.fma=off -timeout 60s ScoreGolden/TrajectoryGolden/ArtifactsGolden)"
(
	GODEBUG=cpu.fma=off
	export GODEBUG
	gated_test 'ScoreGolden|TrajectoryGolden|ArtifactsGolden' -count=1 -timeout 60s \
		./internal/dock/vina ./internal/dock/ad4 ./internal/core
)

# amd64 never fuses a multiply into an add, but arm64 does, and a fused
# site rounds once where amd64 rounds twice. Until every exact-path
# package is free of them, their count per package may only fall: the
# table scripts/fma_arm64.txt holds the current counts.
echo "==> arm64 fused multiply-add ratchet (scripts/fma_arm64.txt)"
grep -v '^#' scripts/fma_arm64.txt | while read -r pkg want; do
	got=$(GOARCH=arm64 go build -gcflags=-S "./$pkg" 2>&1 | grep -cE 'FN?M(ADD|SUB)D' || true)
	if [ "$got" -gt "$want" ]; then
		echo "check: $pkg emits $got fused multiply-adds under GOARCH=arm64, the table allows $want" >&2
		exit 1
	fi
	if [ "$got" -lt "$want" ]; then
		echo "check: $pkg emits $got fused multiply-adds under GOARCH=arm64, fewer than $want: lower its entry in scripts/fma_arm64.txt" >&2
		exit 1
	fi
done

# The linter carries no code the tool cannot reach: every func declared
# in a non-test file of internal/lint must survive the linker's dead
# code elimination into cmd/scilint. Inlining is off, so a function the
# tool calls keeps its own symbol.
echo "==> every internal/lint function is linked into cmd/scilint (go tool nm, -gcflags=all=-l)"
lintbin=$(mktemp)
go build -gcflags=all=-l -o "$lintbin" ./cmd/scilint
lintpkg=$(go list ./internal/lint)
syms=$(go tool nm "$lintbin" | awk '{print $NF}')
rm -f "$lintbin"
# One symbol per declaration: pkg.Name for a function, pkg.(*Recv).Name
# or pkg.Recv.Name for a method.
decls=$(find internal/lint -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec grep -h '^func ' {} + |
	sed -e 's/^func (\([A-Za-z0-9_]* \)\{0,1\}\(\**[A-Za-z0-9_]*\)) \([A-Za-z0-9_]*\).*/\2.\3/' \
		-e 's/^func \([A-Za-z0-9_]*\).*/\1/' -e 's/^\*\(.*\)\.\(.*\)/(*\1).\2/')
declared=0
missing=0
for d in $decls; do
	declared=$((declared + 1))
	printf '%s\n' "$syms" | grep -qxF -- "$lintpkg.$d" || {
		echo "check: internal/lint declares $d, which cmd/scilint does not link" >&2
		missing=$((missing + 1))
	}
done
echo "internal/lint: $declared functions declared, $missing missing from cmd/scilint"
[ "$missing" -eq 0 ] || exit 1

echo "==> kernel benchmark smoke (-benchtime=1x -timeout 60s)"
go test -run '^$' -bench . -benchtime=1x -timeout 60s \
	./internal/grid ./internal/dock \
	./internal/dock/tables ./internal/dock/vina ./internal/dock/ad4

# The benchmark harness end to end, one traced smoke run per workload
# (≈ 5 s in all): the timed ops, their checks and every layer probe,
# which the unit tests reach only piece by piece. A failed operation or
# check exits non-zero.
echo "==> bench harness smoke (every workload, -smoke -seconds 0.2 -trace 1)"
benchlog=$(mktemp)
for workload in dock_ref dock_large screen_adaptive served_mixed; do
	go run ./bench -workload "$workload" -smoke -seconds 0.2 -trace 1 >"$benchlog" 2>&1 ||
		{ echo "check: bench smoke: workload $workload failed" >&2; cat "$benchlog" >&2; rm -f "$benchlog"; exit 1; }
done
rm -f "$benchlog"

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

# How deep each engine's search gets for the poses it scores: mean best
# raw energy and evaluations per dock over fixed pairs and seeds
# (≈ 15 s). A change to a search moves these numbers on purpose;
# results_quality.txt is regenerated with it, so the diff shows the
# before and after.
echo "==> results_quality.txt is current (dockbench -exp quality)"
qual=$(mktemp)
go run ./cmd/dockbench -exp quality >"$qual"
diff "$qual" results_quality.txt || { echo "check: dockbench -exp quality differs from results_quality.txt; regenerate it" >&2; exit 1; }
rm -f "$qual"

echo "==> provenance store benchmark smoke (-benchtime=1x -timeout 60s)"
go test -run '^$' -bench . -benchtime=1x -timeout 60s ./internal/prov

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
