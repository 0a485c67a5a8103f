#!/usr/bin/env bash
# Output A/B: builds buzzsim at the base revision and in this checkout
# and compares, byte for byte, what `buzzsim run -repeat 3` prints for
# every example spec (examples/scenarios/*.json of this checkout, run by
# both binaries).
#
#   scripts/outputs-ab.sh <base-rev>
#
# A perf-only or simplicity change must leave every spec identical; a
# change that moves decode outcomes on purpose lists the specs it moved.
# The script prints one line per spec, "identical" or "differs", and
# exits 1 when any spec differs or a side fails to run it. GOMAXPROCS is
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
(cd "$tmp/base" && go build -o "$tmp/buzzsim-base" ./cmd/buzzsim)
go build -o "$tmp/buzzsim-head" ./cmd/buzzsim

rows=()
differ=0
for spec in examples/scenarios/*.json; do
	verdict=identical
	for side in base head; do
		if ! "$tmp/buzzsim-$side" run -repeat "$repeat" "$spec" > "$tmp/$side.out" 2>&1; then
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
	echo "$spec: $verdict"
	rows+=("| $spec | $verdict |")
done
procs="${GOMAXPROCS:-$(nproc)}"
echo "$differ of ${#rows[@]} specs differ from ${base:0:12} (buzzsim run -repeat $repeat, GOMAXPROCS $procs)"

if [[ -n ${GITHUB_STEP_SUMMARY:-} ]]; then
	{
		echo "### Outputs against ${base:0:12} (buzzsim run -repeat $repeat, GOMAXPROCS $procs)"
		echo
		echo "| spec | output |"
		echo "|---|---|"
		printf '%s\n' "${rows[@]}"
		echo
	} >> "$GITHUB_STEP_SUMMARY"
fi
[[ $differ -eq 0 ]]
