#!/usr/bin/env bash
# Same-runner A/B benchmark gate: runs bench/run.sh on every workload in
# a checkout of the base revision and in this checkout, on the same
# machine, and fails when `bench/run.sh compare` reads any end-to-end
# metric of BENCHMARK.json "worse" than the base beyond its bound.
#
#   scripts/bench-ab.sh <base-rev>
#
# Seeds 0–4 run untraced on both sides, and the side that runs first
# alternates by seed, so a slow stretch of a shared host lands on both
# sides. Seed 0 then runs traced on both sides: the traced result holds
# the decode-cost counts of every workload, buzzd-loopback's included,
# which its untraced result omits. compare takes its verdicts from the
# untraced results only.
#
# A difference in the deterministic counts is printed but does not fail
# the gate: a change that moves them re-pins TestGoldenDecodeCost in the
# same commit, and that re-pin is its declaration. An "unresolved"
# verdict is a warning. The gate fails closed: a report that lacks a
# verdict over all seeds for any workload and end-to-end metric, or that
# holds a verdict it does not know, fails it. With $GITHUB_STEP_SUMMARY
# set, the report is appended there. Needs git, go and jq.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: scripts/bench-ab.sh <base-rev>" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base="$(git rev-parse --verify "$1^{commit}")"

seeds=(0 1 2 3 4)
seconds=5

tmp="$(mktemp -d)"
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

say() {
	if [[ -n ${GITHUB_ACTIONS:-} ]]; then
		echo "::$1::$2"
	else
		echo "$1: $2"
	fi
}

# run <side> <seed> <trace>: one bench/run.sh over every workload. Each
# side builds into and writes its results under a directory of its own.
run() {
	local dir="$root"
	[[ $1 == base ]] && dir="$tmp/base"
	echo "$1: seed $2, trace $3"
	if ! CARGO_TARGET_DIR="$tmp/$1-build" bash "$dir/bench/run.sh" --workload all \
		--seed "$2" --seconds "$seconds" --trace "$3" >> "$tmp/$1.log" 2>&1; then
		tail -n 40 "$tmp/$1.log" >&2
		say error "the $1 side's run at seed $2 (trace $3) failed"
		exit 1
	fi
}

rounds=()
for seed in "${seeds[@]}"; do
	rounds+=("$seed 0")
done
rounds+=("0 1")
for i in "${!rounds[@]}"; do
	read -r seed trace <<< "${rounds[i]}"
	if (( i % 2 == 0 )); then
		run base "$seed" "$trace"
		run head "$seed" "$trace"
	else
		run head "$seed" "$trace"
		run base "$seed" "$trace"
	fi
done

report="$tmp/compare.txt"
CARGO_TARGET_DIR="$tmp/head-build" bash bench/run.sh compare \
	"$tmp/base-build/results" "$tmp/head-build/results" > "$report"
cat "$report"

declare -A want
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for m in $(jq -r '.end_to_end[].name' BENCHMARK.json); do
		want["$w $m"]=1
	done
done
rows=${#want[@]}
fail=0
while read -r w m _ _ pairs verdict; do
	[[ -n ${want["$w $m"]:-} ]] || continue
	unset 'want[$w $m]'
	if [[ ${pairs#*/} != "${#seeds[@]}" ]]; then
		say error "$w $m: $pairs pairs won, expected a pair for each of ${#seeds[@]} seeds"
		fail=1
	fi
	case $verdict in
	worse)
		say error "$w $m is worse than the base beyond its bound"
		fail=1
		;;
	unresolved)
		say warning "$w $m is unresolved: the base's own spread exceeds the bound"
		;;
	improved | "no worse within bound") ;;
	*)
		say error "$w $m: unknown verdict \"$verdict\""
		fail=1
		;;
	esac
done < "$report"
for key in "${!want[@]}"; do
	say error "no verdict for $key: compare's report is incomplete"
	fail=1
done
diffs=$(sed -n '/^deterministic counts/,$p' "$report" | grep -vc -e '^deterministic counts' -e ' identical$' || true)
echo "$((rows - ${#want[@]})) of $rows verdicts read; $diffs deterministic count differences (published, not gated); ${SECONDS}s"

if [[ -n ${GITHUB_STEP_SUMMARY:-} ]]; then
	{
		echo "### Same-runner A/B against ${base:0:12} (seeds ${seeds[*]}, --seconds $seconds)"
		echo
		echo '```'
		cat "$report"
		echo '```'
	} >> "$GITHUB_STEP_SUMMARY"
fi
exit "$fail"
