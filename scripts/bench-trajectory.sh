#!/usr/bin/env bash
# Appends lines to the perf record at the root of the repository
# (BENCH_trajectory.jsonl): for each LABEL=REV argument, REV's own bench/ is
# built and its whole set run once (`-rounds 3 -seconds 1` unless ROUNDS or
# SECONDS_PER_RUN say otherwise), and the line `bench -append` writes is
# appended with "pr": LABEL in front. A commit whose bench/ does not build,
# or whose set writes no line, gets a line saying so instead.
#
#   scripts/bench-trajectory.sh WORKDIR [LABEL=REV ...]
#
# WORKDIR holds a clone of this repository (each REV is checked out there in
# turn, so the working tree is never touched), the build cache and the binary.
# With no LABEL=REV the backfill runs: the last commit of each change that
# CHANGES.md numbers 11 (the first with a bench/) to 39. A change appends its
# parent's line and its own, both in one session on one host, e.g.
# `scripts/bench-trajectory.sh /tmp/traj 42-parent=HEAD~1 42=HEAD`.
set -euo pipefail

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
work="$(mkdir -p "$1" && cd "$1" && pwd)"
shift
out="$repo/BENCH_trajectory.jsonl"
rounds="${ROUNDS:-3}" seconds="${SECONDS_PER_RUN:-1}"

if [ $# -eq 0 ]; then
	# Changes 22, 26 and 27 landed as commits without a number in their
	# subject; there is no change 29.
	set -- 11=9493557 12=afaad17 13=37c4a06 14=e37728b 15=96b3e58 16=deb0639 \
		17=56a06a7 18=e1b11a8 19=299166e 20=6920f92 21=7c099bd 22=af213c9 \
		23=e6f41c3 24=7247e93 25=943328d 26=4a1a6a4 27=5dd8a23 28=6c77813 \
		30=d43d043 31=fd3472d 32=a0dd791 33=0339204 34=aeaa45f 35=eebc4c9 \
		36=4fc7bc6 37=7108f67 38=b2fbe07 39=d7cc254
fi

clone="$work/clone"
if [ ! -d "$clone/.git" ]; then
	git clone -q "$repo" "$clone"
fi
export GOCACHE="$work/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

for arg in "$@"; do
	label="${arg%%=*}" rev="${arg#*=}"
	full="$(git -C "$repo" rev-parse "$rev^{commit}")"
	commit="$(git -C "$repo" rev-parse --short "$full")"
	git -C "$clone" fetch -q "$repo" "$full" 2>/dev/null || true
	git -C "$clone" checkout -q --detach "$full"
	bin="$work/sfs-perfbench-$commit"
	line="$work/line-$commit.jsonl"
	rm -f "$line"
	if ! go build -C "$clone/bench" -o "$bin" . 2>"$work/build-$commit.log"; then
		echo "{\"pr\":\"$label\",\"commit\":\"$commit\",\"error\":\"bench/ does not build at this commit\"}" >>"$out"
		continue
	fi
	# The set names the commit with `git rev-parse` in its working directory.
	(cd "$clone/bench" && "$bin" -rounds "$rounds" -seconds "$seconds" -append "$line" >"$work/set-$commit.txt" 2>&1) || true
	if [ -s "$line" ]; then
		sed "s/^{/{\"pr\":\"$label\",/" "$line" >>"$out"
	else
		echo "{\"pr\":\"$label\",\"commit\":\"$commit\",\"error\":\"the set wrote no line (see its output)\"}" >>"$out"
	fi
	rm -f "$bin"
done
