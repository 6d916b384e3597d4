#!/usr/bin/env bash
# Paired A/B comparison of two revisions on one nbhdbench workload:
#
#   bash scripts/bench-ab.sh PARENT CHANGE WORKLOAD [PAIRS=10]
#
# Run it from inside the repository. PARENT and CHANGE are any git
# revisions. Each gets a detached worktree under .bench_build/ab/ that is
# removed on exit. Pair i runs
#
#   bash nbhdbench/run.sh --workload WORKLOAD --seed i --seconds S --trace 0
#
# inside both worktrees, with S = run_seconds from BENCHMARK.json; the
# side that runs first alternates from pair to pair, so a machine that
# speeds up or slows down during the session loads both sides alike.
#
# For each end_to_end metric of BENCHMARK.json it prints the medians of
# both sides, change/parent, the parent's interquartile range as a % of
# its median, how many pairs the change won (ties count for neither), the
# metric's bound, and a verdict:
#
#   worse       the change's median is worse than the parent's by more
#               than the bound
#   unresolved  the parent's IQR is wider than the bound, and not every
#               change run beats every parent run
#   ok          otherwise
#
# It then prints the failed/attempted op counts summed over each side.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bash scripts/bench-ab.sh PARENT CHANGE WORKLOAD [PAIRS=10]" >&2
	exit 2
fi
workload=$3
pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
seconds=$(jq -r '.run_seconds' "$spec")
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")

ab="$root/.bench_build/ab"
work="$ab/$$"
mkdir -p "$work"
cleanup() {
	for side in parent change; do
		if [ -d "$work/$side" ]; then
			git -C "$root" worktree remove --force "$work/$side" || true
		fi
	done
	git -C "$root" worktree prune
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/parent" "$parent"
git -C "$root" worktree add --quiet --detach "$work/change" "$change"

# run SIDE SEED appends the run's result line to SIDE.jsonl, tagged with
# its seed so the two sides pair up.
run() {
	local side=$1 seed=$2 out
	echo "pair $seed: $side" >&2
	if ! out=$(cd "$work/$side" && bash nbhdbench/run.sh --workload "$workload" \
		--seed "$seed" --seconds "$seconds" --trace 0 2>"$work/$side.log"); then
		echo "bench-ab: $side run for seed $seed failed:" >&2
		tail -n 20 "$work/$side.log" >&2
		exit 1
	fi
	tail -n 1 <<<"$out" | jq -c --argjson seed "$seed" '{seed: $seed} + .' >>"$work/$side.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

echo "workload $workload, $pairs pairs, ${seconds}s runs"
echo "parent $parent"
echo "change $change"
jq -rn \
	--slurpfile spec "$spec" \
	--slurpfile p "$work/parent.jsonl" \
	--slurpfile c "$work/change.jsonl" '
def quantile(q): sort as $s | ($s | length) as $n
	| (($n - 1) * q) as $x | ($x | floor) as $lo
	| if $lo + 1 < $n then $s[$lo] + ($x - $lo) * ($s[$lo + 1] - $s[$lo]) else $s[$lo] end;
def median: quantile(0.5);
def fmt: . * 1000 | round / 1000 | tostring;
($p | map({key: (.seed | tostring), value: .}) | from_entries) as $pb
| ($c | map({key: (.seed | tostring), value: .}) | from_entries) as $cb
| ["metric", "parent", "change", "change/parent", "parent_iqr%", "wins", "bound", "verdict"],
  ($spec[0].end_to_end[] as $m
   | [$pb | keys[] | select($cb[.] != null)
      | {p: $pb[.].metrics[$m.name].value, c: $cb[.].metrics[$m.name].value}
      | select(.p != null and .c != null)] as $pairs
   | select($pairs | length > 0)
   | ($pairs | map(.p)) as $pv | ($pairs | map(.c)) as $cv
   | ($pv | median) as $pm | ($cv | median) as $cm
   | (if $pm != 0 then $cm / $pm else null end) as $ratio
   | (if $pm != 0 then (($pv | quantile(0.75)) - ($pv | quantile(0.25))) / ($pm | fabs) else null end) as $iqr
   | (if $m.better == "lower" then 1 else -1 end) as $sign
   | ($pairs | map(select(($sign * (.c - .p)) < 0)) | length) as $wins
   | (($sign * ($cm - $pm)) > ($m.bound * ($pm | fabs))) as $worse
   | (if $m.better == "lower" then ($cv | max) < ($pv | min) else ($cv | min) > ($pv | max) end) as $dominates
   | [$m.name, ($pm | fmt), ($cm | fmt),
      (if $ratio == null then "-" else $ratio | fmt end),
      (if $iqr == null then "-" else $iqr * 100 | . * 10 | round / 10 | tostring end),
      "\($wins)/\($pairs | length)", ($m.bound | tostring),
      (if $worse then "worse"
       elif $iqr != null and $iqr > $m.bound and ($dominates | not) then "unresolved"
       else "ok" end)]),
  ["failed", ($p | map(.failed) | add | tostring) + "/" + ($p | map(.attempted) | add | tostring),
   ($c | map(.failed) | add | tostring) + "/" + ($c | map(.attempted) | add | tostring)]
| @tsv' | awk -F'\t' '{ printf "%-21s", $1; for (i = 2; i <= NF; i++) printf " %14s", $i; printf "\n" }'
