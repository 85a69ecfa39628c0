#!/bin/sh
# record_bench.sh LABEL [COUNT] — run the figure benchmarks, the
# internal/sim engine microbenchmarks, and the internal/runner
# scheduler-contention benchmark, and record ns/op, B/op and allocs/op
# under the given label (see scripts/benchjson). COUNT is the
# -benchtime for the microbenchmarks (default 20x; the figure
# benchmarks always run 1x so the first — and only — iteration actually
# simulates instead of replaying the memoization cache).
#
# Labels seed..pr3 maintain the PR 3 ledger BENCH_PR3.json; pr5 writes
# BENCH_PR5.json seeded from the PR 3 ledger; pr6 writes
# BENCH_PR6.json seeded from the PR 5 ledger; the pr9 label (and
# anything after it) writes BENCH_PR9.json, seeded from the PR 6
# ledger — each file carries the full seed..prN progression.
#
# The contention benchmark runs at -cpu 4 so the serial/pooled
# comparison actually contends even when GOMAXPROCS defaults low.
#
# Usage, from the repository root:
#
#	./scripts/record_bench.sh pr5
set -eu

label="${1:?usage: record_bench.sh LABEL [COUNT]}"
count="${2:-20x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

out="BENCH_PR3.json"
case "$label" in
seed | pr3) ;;
pr5)
	out="BENCH_PR5.json"
	# Carry the recorded history forward: benchjson preserves every
	# label already in the output file.
	if [ ! -f "$out" ] && [ -f BENCH_PR3.json ]; then
		cp BENCH_PR3.json "$out"
	fi
	;;
pr6)
	out="BENCH_PR6.json"
	if [ ! -f "$out" ] && [ -f BENCH_PR5.json ]; then
		cp BENCH_PR5.json "$out"
	fi
	;;
*)
	out="BENCH_PR9.json"
	if [ ! -f "$out" ] && [ -f BENCH_PR6.json ]; then
		cp BENCH_PR6.json "$out"
	fi
	;;
esac

echo "record_bench: figure + store + remote benchmarks (-benchtime=1x)" >&2
go test -run=NoSuchTest -bench='Table|Fig|ADL|Store|Remote' -benchmem -benchtime=1x . >"$tmp"
echo "record_bench: sim microbenchmarks (-benchtime=$count)" >&2
go test -run=NoSuchTest -bench=. -benchmem -benchtime="$count" ./internal/sim >>"$tmp"
echo "record_bench: scheduler contention benchmark (-cpu 4)" >&2
go test -run=NoSuchTest -bench='MemoContention' -benchmem -benchtime=2s -cpu 4 ./internal/runner >>"$tmp"

go run ./scripts/benchjson -label "$label" -out "$out" <"$tmp"
