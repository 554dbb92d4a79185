#!/usr/bin/env bash
# Paired A/B of the end-to-end benchmark: this checkout against a parent
# commit, per bench/README.md "Landing a performance claim".
#
#   scripts/ab.sh <parent-ref> <workload> <seed> [pairs=10]
#
# Builds each side's bench binary once (the parent from a `git archive` copy
# in a temporary directory, removed on exit), runs <pairs> pairs at
# `-seconds 10 -trace 0` alternating which side goes first, and prints the
# CHANGES.md table on stdout: median [Q1, Q3] with inclusive quartiles, the
# change of the median, the parent's IQR, and wins/ties per metric. Every
# run's JSON line is kept on stderr. Exits non-zero on any "correct": false.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <parent-ref> <workload> <seed> [pairs=10]" >&2
	exit 2
fi
ref=$1 workload=$2 seed=$3 pairs=${4:-10}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
build() { env GOFLAGS=-mod=mod GOWORK=off GOPROXY=off go -C "$1/bench" build -o "$2" .; }
build "$tmp/parent" "$tmp/bench.parent"
build "$root" "$tmp/bench.change"

# one <side> <dir>: a run from the side's own checkout; its last stdout line
# is the result. A run that fails its own checks still prints one, and the
# table's exit status reports it.
one() {
	(cd "$2" && "$tmp/bench.$1" -workload "$workload" -seed "$seed" -seconds 10 -trace 0 2>>"$tmp/$1.stderr" || true) |
		tail -n 1 | tee -a "$tmp/$1.jsonl" | sed "s/^/$1: /" >&2
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		one parent "$tmp/parent"
		one change "$root"
	else
		one change "$root"
		one parent "$tmp/parent"
	fi
done
grep -h sim_fingerprint "$tmp/parent.stderr" "$tmp/change.stderr" | sort | uniq -c >&2 || true
cd "$root" && go run scripts/abtable.go "$workload" "$tmp/parent.jsonl" "$tmp/change.jsonl"
