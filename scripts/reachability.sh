#!/bin/sh
# Production code is what a binary runs. Builds every shipped binary
# (./cmd/..., ./bench, ./examples/...) with inlining off, so a function
# a binary calls keeps its own symbol, and fails, naming the function,
# when a func declared in a non-test file of internal/ or cmd/ is in no
# binary's symbol table and not listed in scripts/unlinked.txt, or when
# an entry of that list is linked or no longer declared. Each cmd/X
# package is checked against its own binary alone: every command's
# symbols are main.*. Shell and go tool only; scripts/check.sh runs it.
set -eu

cd "$(dirname "$0")/.."

module=$(go list -m)
bindir=$(mktemp -d)
work=$(mktemp -d)
trap 'rm -rf "$bindir" "$work"' EXIT

go build -gcflags=all=-l -o "$bindir" ./cmd/... ./bench ./examples/...

# One name per symbol, in the form the declarations below take:
# internal/pkg.Func, internal/pkg.(*Recv).Method, cmd/X.Func. Generic
# instantiations lose their bracketed type arguments, innermost first
# (a shape such as go.shape.interface { ... } holds spaces and brackets).
strip_generics() {
	sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta'
}
for bin in "$bindir"/*; do
	# A command's main.* symbols count only for its own package.
	main=cmd/${bin##*/}
	[ -d "$main" ] || main=none
	go tool nm "$bin" | sed -E 's/^ *[0-9a-f]* +[A-Za-z] +//' | strip_generics |
		sed -n -e "s|^$module/\\(internal/\\)|\\1|p" -e "s|^main\\.|$main.|p"
done | sort -u >"$work/linked"

# One name per func declaration of a non-test file: Func, Recv.Method
# or (*Recv).Method, type parameters dropped; the k-th init of a
# package (files in go list's name order) is the symbol init.k-1.
find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort |
	xargs awk '
	FNR == 1 {
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		if (dir != lastdir) { inits = 0; lastdir = dir }
	}
	/^func / {
		line = $0
		sub(/^func /, "", line)
		if (line ~ /^\(/) {
			recv = line
			sub(/\).*/, "", recv)
			sub(/^\(/, "", recv)
			sub(/\[.*/, "", recv)
			n = split(recv, f, " ")
			recv = f[n]
			rest = line
			sub(/^\([^)]*\) */, "", rest)
			match(rest, /^[A-Za-z0-9_]+/)
			meth = substr(rest, 1, RLENGTH)
			if (recv ~ /^\*/) name = "(" recv ")." meth
			else name = recv "." meth
		} else {
			match(line, /^[A-Za-z0-9_]+/)
			name = substr(line, 1, RLENGTH)
			if (name == "init") name = "init." inits++
		}
		print dir "." name
	}' | sort -u >"$work/declared"

comm -23 "$work/declared" "$work/linked" >"$work/unlinked"
grep -v -e '^#' -e '^[[:space:]]*$' scripts/unlinked.txt | awk '{print $1}' | sort >"$work/listed"
dups=$(uniq -d "$work/listed")
[ -z "$dups" ] || { echo "reachability: scripts/unlinked.txt lists more than once: $dups" >&2; exit 1; }

# Symbols such as internal/chem.(*Molecule).Mass hold glob characters.
set -f
fail=0
for fn in $(comm -23 "$work/unlinked" "$work/listed"); do
	echo "reachability: $fn is declared in a non-test file but linked into no binary: delete it, move it into a _test.go file, or list it in scripts/unlinked.txt with the test that reads it" >&2
	fail=1
done
for fn in $(comm -13 "$work/unlinked" "$work/listed"); do
	if grep -qxF -- "$fn" "$work/declared"; then
		echo "reachability: scripts/unlinked.txt lists $fn, which a binary links: drop the entry" >&2
	else
		echo "reachability: scripts/unlinked.txt lists $fn, which no non-test file declares: drop the entry" >&2
	fi
	fail=1
done
echo "reachability: $(wc -l <"$work/declared") declared, $(wc -l <"$work/unlinked") unlinked, $(wc -l <"$work/listed") listed"
exit "$fail"
