#!/bin/sh
# fuzz_smoke.sh — run every native Go fuzz target (func Fuzz* in a
# _test.go file) for 10s each, one at a time, since `go test -fuzz`
# takes one target per run. This is CI's fuzz job; a new target is
# picked up without editing this script.
#
# Usage, from the repository root:
#
#	./scripts/fuzz_smoke.sh
set -eu

find . -name '*_test.go' ! -path '*/testdata/*' -exec grep -l '^func Fuzz' {} + | sort |
	while read -r file; do
		dir="$(dirname "$file")"
		for fn in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
			echo "fuzz_smoke: $dir $fn" >&2
			go test -run='^$' -fuzz="^$fn\$" -fuzztime=10s "$dir"
		done
	done
