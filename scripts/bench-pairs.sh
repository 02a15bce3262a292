#!/usr/bin/env bash
# Measures this checkout against a base revision with the repository's own
# benchmark, in alternating pairs, and appends one row per workload and
# end-to-end metric to BENCH_e2e.json:
#
#   make bench-pairs BASE=<rev> [PAIRS=6] [SECONDS=5] [SEED0=0] \
#       [WORKLOADS="proto.http10-handoff ..."] [CLAIM=<workload>:<metric>] [NOTE=<text>]
#
# Pair i runs `benchmark/run.sh --workload W --seed SEED0+i --seconds S
# --trace 0` once in each tree, the base first on odd pairs and this
# checkout first on even ones, so that a box drifting in speed favours
# neither side. The base is extracted with git archive under .bench_build/
# and builds there; this checkout is measured as it stands, uncommitted
# changes included (the row's head is then <sha>+worktree). Each run's
# last output line — the benchmark's JSON result — is kept under
# .bench_build/pairs/.
#
# A row holds both revisions, the pairs and seeds, each side's median and
# quartiles, the pairs this checkout won, whether every run was correct
# and how many operations failed, the metric's bound from BENCHMARK.json
# and whether the medians and the spread stay inside it, the environment
# (CPU model, processors, kernel, Go) and the claim: "claim" on the row
# CLAIM names, "no claim" elsewhere. BASE=HEAD on a clean checkout is an
# A/A run. Needs bash, git, tar and jq.
set -euo pipefail

usage() { sed -n '2,10p' "$0" >&2; exit 2; }
base=""; pairs=6; secs=5; seed0=0; workloads=""; claim=""; note=""; out=""
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) secs=$2 ;;
	--seed0) seed0=$2 ;;
	--workloads) workloads=$2 ;;
	--claim) claim=$2 ;;
	--note) note=$2 ;;
	--out) out=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$base" ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
out=${out:-$root/BENCH_e2e.json}
[ -n "$workloads" ] || workloads=$(jq -r '.workloads[].name' BENCHMARK.json | tr '\n' ' ')

base_sha=$(git rev-parse --short=7 "$base^{commit}")
head_sha=$(git rev-parse --short=7 HEAD)
if [ -n "$(git status --porcelain --untracked-files=normal)" ]; then
	head_sha="$head_sha+worktree"
fi
base_tree="$root/.bench_build/base-$base_sha"
if [ ! -f "$base_tree/BENCHMARK.json" ]; then
	rm -rf "$base_tree"
	mkdir -p "$base_tree"
	git archive "$base_sha" | tar -x -C "$base_tree"
fi
runs="$root/.bench_build/pairs/$base_sha-$(date -u +%Y%m%dT%H%M%S)"
mkdir -p "$runs"

# run SIDE TREE WORKLOAD PAIR: one benchmark run, its result line kept.
run() {
	local side=$1 tree=$2 w=$3 i=$4 line
	line=$(cd "$tree" && bash benchmark/run.sh --workload "$w" --seed $((seed0 + i)) \
		--seconds "$secs" --trace 0 2>>"$runs/stderr.log" | tail -n 1) || true
	if ! jq -e .metrics <<<"$line" >/dev/null 2>&1; then
		echo "bench-pairs: $side run of $w, pair $i, printed no result (see $runs/stderr.log)" >&2
		exit 1
	fi
	jq -c --arg side "$side" --arg w "$w" --argjson pair "$i" \
		'{side: $side, workload: $w, pair: $pair, result: .}' <<<"$line" >>"$runs/runs.jsonl"
	echo "bench-pairs: $w pair $i $side: $(jq -c '[.correct, .failed]' <<<"$line")" >&2
}

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base_tree" "$w" "$i"
			run head "$root" "$w" "$i"
		else
			run head "$root" "$w" "$i"
			run base "$base_tree" "$w" "$i"
		fi
	done
done

cpu=$( (grep -m1 'model name' /proc/cpuinfo 2>/dev/null || echo ': unknown') | sed 's/^[^:]*: *//')
env=$(jq -n --arg cpu "$cpu" --argjson nproc "$(getconf _NPROCESSORS_ONLN)" \
	--arg kernel "$(uname -sr)" --arg go "$(go env GOVERSION)" \
	'{cpu: $cpu, nproc: $nproc, kernel: $kernel, go: $go}')

rows=$(jq -s -c --slurpfile spec BENCHMARK.json --argjson env "$env" \
	--arg base "$base_sha" --arg head "$head_sha" --arg claim "$claim" --arg note "$note" \
	--arg date "$(date -u +%Y-%m-%d)" --argjson seed0 "$seed0" --argjson secs "$secs" '
	def q(p): sort | ((length - 1) * p) as $x | ($x | floor) as $lo | ($x | ceil) as $hi
		| .[$lo] + (.[$hi] - .[$lo]) * ($x - $lo);
	def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
	. as $runs
	| [$runs[].workload] | unique | map(. as $w
		| [$runs[] | select(.workload == $w)] as $r
		| ([$r[].pair] | max) as $n
		| $spec[0].end_to_end[] as $m
		| [range(1; $n + 1) as $i
			| [$r[] | select(.pair == $i)] as $p
			| {base: ($p[] | select(.side == "base") | .result.metrics[$m.name].value),
			   head: ($p[] | select(.side == "head") | .result.metrics[$m.name].value)}] as $pv
		| ($pv | map(.base) | stats) as $b
		| ($pv | map(.head) | stats) as $h
		| (if $m.better == "lower" then ($h.median - $b.median) else ($b.median - $h.median) end
			/ (if $b.median == 0 then 1 else $b.median end)) as $worse
		| (([$b.q3 - $b.q1, $h.q3 - $h.q1] | max) / (if $b.median == 0 then 1 else $b.median end)) as $spread
		| {workload: $w, metric: $m.name, unit: $m.unit, better: $m.better,
		   base: $base, head: $head, pairs: $n, seeds: "\($seed0 + 1)-\($seed0 + $n)", seconds: $secs,
		   base_median: $b.median, base_q1: $b.q1, base_q3: $b.q3,
		   head_median: $h.median, head_q1: $h.q1, head_q3: $h.q3,
		   wins: ($pv | map(select(if $m.better == "lower" then .head < .base else .head > .base end)) | length),
		   correct: ($r | all(.result.correct)), failed: ($r | map(.result.failed) | add),
		   bound: $m.bound, worse_frac: $worse, spread_frac: $spread,
		   within_bound: ($worse <= $m.bound and $spread <= $m.bound),
		   env: $env, date: $date,
		   claim: (if "\($w):\($m.name)" == $claim then "claim" else "no claim" end),
		   note: $note}) | flatten | .[]' "$runs/runs.jsonl")

[ -s "$out" ] || echo '[]' >"$out"
all=$(jq -c --argjson new "$(jq -s -c . <<<"$rows")" '. + $new | .[]' "$out")
{ echo '['; sed '$!s/$/,/' <<<"$all"; echo ']'; } >"$out.tmp"
mv "$out.tmp" "$out"
jq -r '.[] | select(.workload) | "\(.workload) \(.metric): base \(.base_median) head \(.head_median) wins \(.wins)/\(.pairs) within bound \(.within_bound)"' <<<"$(jq -s . <<<"$rows")" >&2
