#!/usr/bin/env bash
# Paired rexbench gate: the parent tree against this one, on this runner.
#
#   .github/bench-pair.sh <checkout of the parent commit>
#
# For each workload it runs parent then change (seed 1, 3 repetitions, both
# passes) and compares them with `rexbench -compare`. An exact-repeat metric
# or digest that differs (`changed`) fails at once. A time verdict of
# `regressed` fails only if a second pair, run in the opposite order, says
# `regressed` too: a shared runner has slow spells half a minute long that
# one pair cannot tell from a regression and a second can
# (bench/rexbench/README.md, "A/A"). The compare tables go to the job summary,
# with offline_tight's the per-operator iteration rates of its traced pass and
# with sim_steady's the simulator's ns per event and Sleep time, parent beside
# change: where in the solver or the event loop a wall-time change sits.
set -euo pipefail

parent=${1:?usage: bench-pair.sh <checkout of the parent commit>}
change=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

(cd "$parent" && go build -o "$out/rexbench-parent" ./bench/rexbench)
(cd "$change" && go build -o "$out/rexbench-change" ./bench/rexbench)

# measure <side> <workload> <tag>: rexbench resolves the module from its
# working directory, so each binary runs inside the tree it was built from.
measure() {
	local dir=$parent
	[ "$1" = change ] && dir=$change
	(cd "$dir" && "$out/rexbench-$1" -workload "$2" -seed 1 -reps 3 -out "$out/$2-$1-$3.json" >"$out/$2-$1-$3.log")
}

# traced_rows <workload> <tag> <pattern> <title>: the rows rexbench printed
# for the workload's traced pass whose metric name matches the awk pattern,
# one line per metric, parent then change and their ratio.
traced_rows() {
	rows() { awk -v re="$3" '$2 ~ re {print $2, $3}' "$out/$1-$2.log" | sort; }
	join <(rows "$1" "parent-$2" "$3") <(rows "$1" "change-$2" "$3") |
		awk -v title="$4" 'BEGIN {printf "%-34s %12s %12s %8s\n", title, "parent", "change", "ratio"}
			{printf "%-34s %12s %12s %8.2f\n", $1, $2, $3, $3 / $2}'
}

# compare <workload> <tag>: writes the table to $out/<workload>-<tag>.txt,
# prints it, and records it in the job summary when there is one.
compare() {
	local table=$out/$1-$2.txt rc=0
	"$out/rexbench-change" -compare "$out/$1-parent-$2.json" "$out/$1-change-$2.json" >"$table" || rc=$?
	case $1 in
	offline_tight) traced_rows "$1" "$2" '^core[.]op[.][a-z]+[.]iters_per_s$' "offline_tight traced pass, 1/s" >>"$table" ;;
	sim_steady) traced_rows "$1" "$2" '^des[.](ns_per_event|sleep_s)$' "sim_steady traced pass" >>"$table" ;;
	esac
	cat "$table"
	[ "$rc" -le 1 ] || exit "$rc" # 1 is a verdict, judged below; anything else is a broken run
	if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
		{
			printf '### %s (pair %s)\n```\n' "$1" "$2"
			cat "$table"
			printf '```\n'
		} >>"$GITHUB_STEP_SUMMARY"
	fi
}

# lint_module is left out on purpose: it lints the tree it runs in, so its
# exact-repeat metric lint.klines differs between any two commits and
# -compare would report it as `changed` on every pull request.
status=0
for w in campaign_traced journal_replay sim_steady offline_tight campaign_closed_loop fleet_partitioned; do
	measure parent "$w" 1
	measure change "$w" 1
	compare "$w" 1
	if grep -Eq '  changed$|missing from the candidate' "$out/$w-1.txt"; then
		echo "bench-pair: $w: an exact-repeat metric or digest changed"
		status=1
	elif grep -q '  regressed$' "$out/$w-1.txt"; then
		echo "bench-pair: $w: regressed; running a second pair in the opposite order"
		measure change "$w" 2
		measure parent "$w" 2
		compare "$w" 2
		if grep -Eq '  (changed|regressed)$' "$out/$w-2.txt"; then
			echo "bench-pair: $w: regressed in both orders"
			status=1
		fi
	fi
done
exit $status
