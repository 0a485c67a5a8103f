#!/usr/bin/env bash
# Output A/B: builds buzzsim and figures at the base revision and in
# this checkout and compares, byte for byte, what `buzzsim run -repeat 3`
# prints for every example spec (examples/scenarios/*.json of this
# checkout, run by both binaries), what `buzzsim sweep -seed 555001`
# prints for warehouse.json, the sweep path CI's warehouse-scale job
# runs, and two outputs of the paths no example spec runs:
# `figures -fig all -trials 4` (identification, the FSA, BTree, TDMA
# and CDMA baselines, every figure's data phase) and the ad-hoc
# `buzzsim -k 8 -seed 1 -repeat 200` (the public buzz pipeline:
# estimated taps and RefineChannel).
#
#   scripts/outputs-ab.sh <base-rev>
#
# A perf-only or simplicity change must leave every output identical; a
# change that moves decode outcomes on purpose lists the outputs it
# moved. The script prints one line per output, "identical" or
# "differs", and exits 1 when any differs or a side fails to run it. GOMAXPROCS is
# taken from the environment, so running it at two values checks
# schedule independence as well. With $GITHUB_STEP_SUMMARY set, the
# table is appended there. Needs git and go.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: scripts/outputs-ab.sh <base-rev>" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base="$(git rev-parse --verify "$1^{commit}")"
repeat=3

tmp="$(mktemp -d)"
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
for cmd in buzzsim figures; do
	(cd "$tmp/base" && go build -o "$tmp/$cmd-base" "./cmd/$cmd")
	go build -o "$tmp/$cmd-head" "./cmd/$cmd"
done

rows=()
differ=0
# compare <label> <command> <args...>: runs the command's base and head
# binaries with the args and records whether their outputs are
# byte-identical.
compare() {
	local label=$1 cmd=$2 verdict=identical
	shift 2
	for side in base head; do
		if ! "$tmp/$cmd-$side" "$@" > "$tmp/$side.out" 2>&1; then
			verdict="differs ($side failed)"
		fi
	done
	if [[ $verdict == identical ]] && ! cmp -s "$tmp/base.out" "$tmp/head.out"; then
		verdict=differs
	fi
	if [[ $verdict != identical ]]; then
		differ=$((differ + 1))
		diff "$tmp/base.out" "$tmp/head.out" | head -n 20 >&2 || true
	fi
	echo "$label: $verdict"
	rows+=("| $label | $verdict |")
}
for spec in examples/scenarios/*.json; do
	compare "$spec" buzzsim run -repeat "$repeat" "$spec"
done
compare "sweep -seed 555001 examples/scenarios/warehouse.json" buzzsim sweep -seed 555001 examples/scenarios/warehouse.json
compare "figures -fig all -trials 4" figures -fig all -trials 4
compare "buzzsim -k 8 -seed 1 -repeat 200" buzzsim -k 8 -seed 1 -repeat 200
procs="${GOMAXPROCS:-$(nproc)}"
what="buzzsim run -repeat $repeat, one sweep, figures and the ad-hoc pipeline"
echo "$differ of ${#rows[@]} outputs differ from ${base:0:12} ($what, GOMAXPROCS $procs)"

if [[ -n ${GITHUB_STEP_SUMMARY:-} ]]; then
	{
		echo "### Outputs against ${base:0:12} ($what, GOMAXPROCS $procs)"
		echo
		echo "| output | verdict |"
		echo "|---|---|"
		printf '%s\n' "${rows[@]}"
		echo
	} >> "$GITHUB_STEP_SUMMARY"
fi
[[ $differ -eq 0 ]]
