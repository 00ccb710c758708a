#!/usr/bin/env bash
# Alternating pairs of ledger runs: a parent revision against the working
# tree, summarised per end-to-end metric. Reads `benchmark/run.sh` output
# only; edits nothing under benchmark/.
#
#   bash scripts/pairs.sh <parent-rev> [--workload W|all] [--pairs N]
#                         [--seconds S] [--first-seed F] [--traced K]
#
# Defaults: --workload tag_tax, --pairs 10, --seconds = BENCHMARK.json's
# run_seconds, --first-seed 101, --traced 1. `--workload all` runs every workload
# BENCHMARK.json declares, one after another, each printing its own
# tables. The parent is exported with `git archive` into a work
# directory (a plain tree: nothing is registered in this repository's
# .git) once, and each side's ledger builds into a CARGO_TARGET_DIR of
# its own once, before any run starts. Pair i runs seed F + i - 1 with
# `--trace 0`; odd pairs run the parent first, even pairs the change. A
# claim made on the default seeds can be re-checked on seeds not used
# while writing the change by starting past them (`--first-seed 111`).
#
# For every end-to-end metric of BENCHMARK.json it prints the parent and
# change medians, the change in % of the parent median, how many pairs
# the change won (ties count for neither) and the parent's interquartile
# range. A median difference no larger than that IQR reads `unresolved`.
#
# Then one `--trace 1` run per side on seed F prints every per-layer
# metric whose unit is `count`, `B` or `hash` — bytes on the wire, frames,
# rows, script hashes — parent beside change, with `*` marking each that
# differs. Exact counters should repeat; a mark is information to
# explain, not a failure. The same two runs then print every per-layer
# `us` and `ratio` metric, parent beside change with the change in % —
# one run per side, so where a saving sits, not a measurement of it.
#
# `--traced K` makes that K alternating traced runs per side, on seeds
# F … F+K-1 (odd seeds run the parent first). A counter then shows one
# value per side, or its min-max where the side's runs differ, marked
# `~`; `*` marks a seed on which parent and change differ. Each `us` and
# `ratio` metric shows each side's median and [min-max] over its K runs,
# and the change of the medians in %. K = 1 prints what it always has.
#
# Exits non-zero if any run reports `failed` > 0.
#
# The work directory (the exported parent, both target directories and
# every run's output) is $PAIRS_DIR, default a fresh `mktemp -d`, and is
# kept.
# Needs git, jq and awk.
set -euo pipefail

usage() {
    echo "usage: bash scripts/pairs.sh <parent-rev> [--workload W|all] [--pairs N] [--seconds S] [--first-seed F] [--traced K]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev="$1"
shift
workload=tag_tax
pairs=10
seconds=""
first_seed=101
traced=1
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload="$2" ;;
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --first-seed) first_seed="$2" ;;
        --traced) traced="$2" ;;
        *) usage ;;
    esac
    shift 2
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ -n "$seconds" ] || seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
if [ "$workload" = all ]; then
    workloads="$(jq -r '.workloads[].name' BENCHMARK.json)"
else
    workloads="$workload"
fi
last_seed=$((first_seed + pairs - 1))
parent_sha="$(git rev-parse --verify --quiet "$parent_rev^{commit}")" || {
    echo "pairs: $parent_rev is not a commit" >&2
    exit 2
}
dir="${PAIRS_DIR:-$(mktemp -d)}"
mkdir -p "$dir/runs"
echo "pairs: work directory $dir" >&2

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git archive "$parent_sha" | tar -x -C "$dir/parent"

tree_of() {
    if [ "$1" = parent ]; then echo "$dir/parent"; else echo "$root"; fi
}

# Build both sides up front (`--list` builds, then runs nothing).
for side in parent change; do
    echo "pairs: building the $side ledger" >&2
    CARGO_TARGET_DIR="$dir/target-$side" bash "$(tree_of "$side")/benchmark/run.sh" --list >/dev/null
done

failures=0
run() {
    local side="$1" seed="$2" trace="${3:-0}"
    local out="$dir/runs/$workload-$side-$seed"
    [ "$trace" = 0 ] || out="$out-traced"
    echo "pairs: $side, seed $seed, trace $trace" >&2
    CARGO_TARGET_DIR="$dir/target-$side" bash "$(tree_of "$side")/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$out.out" || true
    tail -n 1 "$out.out" >"$out.json"
    if ! jq -e '.failed == 0' "$out.json" >/dev/null 2>&1; then
        echo "pairs: $side seed $seed failed (see $out.out)" >&2
        failures=$((failures + 1))
    fi
}

# The pairs, the end-to-end table and the traced comparison for one
# workload.
measure() {
    workload="$1"
    local i seed
    for i in $(seq 1 "$pairs"); do
        seed=$((first_seed + i - 1))
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$seed"
            run change "$seed"
        else
            run change "$seed"
            run parent "$seed"
        fi
    done

    # One line per (metric, pair): name, direction, parent value, change value.
    local table="$dir/table-$workload.tsv"
    : >"$table"
    jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
        for i in $(seq 1 "$pairs"); do
            seed=$((first_seed + i - 1))
            p="$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$dir/runs/$workload-parent-$seed.json" 2>/dev/null || echo nan)"
            c="$(jq -r --arg m "$metric" '.metrics[$m].value // "nan"' "$dir/runs/$workload-change-$seed.json" 2>/dev/null || echo nan)"
            printf '%s\t%s\t%s\t%s\n' "$metric" "$better" "$p" "$c" >>"$table"
        done
    done

    echo "$workload: $pairs pairs x ${seconds}s, seeds $first_seed-$last_seed, parent ${parent_sha:0:10} -> working tree"
    awk -F '\t' '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = a[i]
                for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                a[j + 1] = t
            }
        }
        # Linear-interpolation quantile of the sorted a[1..n].
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function report(    pm, cm, iqr, delta, pct, verdict) {
            sort(p, n); sort(c, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
            delta = cm - pm
            pct = pm != 0 ? 100 * delta / pm : 0
            if ((delta < 0 ? -delta : delta) <= iqr) verdict = "unresolved"
            else if ((delta > 0) == (dir == "higher")) verdict = "better"
            else verdict = "worse"
            printf "%-12s %12.5g -> %-12.5g %+8.1f%% %6d/%-3d %12.4g  %s\n", name, pm, cm, pct, wins, n, iqr, verdict
        }
        BEGIN {
            printf "%-12s %12s    %-12s %9s %10s %12s  %s\n", "metric", "parent", "change", "delta", "won", "parent IQR", "verdict"
        }
        $1 != name {
            if (n) report()
            name = $1; dir = $2; n = 0; wins = 0
        }
        {
            n++; p[n] = $3 + 0; c[n] = $4 + 0
            if (dir == "higher" ? $4 + 0 > $3 + 0 : $4 + 0 < $3 + 0) wins++
        }
        END { if (n) report() }
    ' "$table"

    local last_traced=$((first_seed + traced - 1)) runs=()
    for i in $(seq 1 "$traced"); do
        seed=$((first_seed + i - 1))
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$seed" 1
            run change "$seed" 1
        else
            run change "$seed" 1
            run parent "$seed" 1
        fi
        runs+=("$dir/runs/$workload-parent-$seed-traced.json" "$dir/runs/$workload-change-$seed-traced.json")
    done
    # One line per (metric, traced run): name, unit, side, seed, value.
    local traced_table="$dir/traced-$workload.tsv"
    for f in "${runs[@]}"; do
        side="${f##*/$workload-}"
        side="${side%%-*}"
        seed="${f%-traced.json}"
        seed="${seed##*-}"
        jq -r --arg side "$side" --arg seed "$seed" '
            (.metrics // {}) | to_entries[]
            | [.key, .value.unit, $side, $seed, (.value.value | tostring)] | @tsv' "$f" 2>/dev/null || true
    done >"$traced_table"

    echo
    if [ "$traced" = 1 ]; then
        echo "$workload: exact counters, one traced run per side on seed $first_seed (* = differs)"
    else
        echo "$workload: exact counters, $traced traced runs per side on seeds $first_seed-$last_traced" \
            "(* = parent and change differ on a seed, ~ = runs of one side differ)"
    fi
    awk -F '\t' '
        $2 != "count" && $2 != "B" && $2 != "hash" { next }
        !($1 in unit) { order[++n] = $1; unit[$1] = $2 }
        {
            v[$1, $3, $4] = $5; seen[$1, $3, $4] = 1; seeds[$4] = 1
            if (($1, $3) in first) {
                if ($5 != first[$1, $3]) varies[$1, $3] = 1
                if ($5 + 0 < lo[$1, $3] + 0) lo[$1, $3] = $5
                if ($5 + 0 > hi[$1, $3] + 0) hi[$1, $3] = $5
            } else {
                first[$1, $3] = $5; lo[$1, $3] = $5; hi[$1, $3] = $5
            }
        }
        function shown(m, side) {
            if (!((m, side) in first)) return "missing"
            if (!((m, side) in varies)) return first[m, side]
            # A hash has no range.
            return unit[m] == "hash" ? "varies" : lo[m, side] "-" hi[m, side]
        }
        END {
            for (i = 1; i <= n; i++) {
                m = order[i]; mark = ""
                for (s in seeds)
                    if (v[m, "parent", s] != v[m, "change", s] || seen[m, "parent", s] != seen[m, "change", s]) mark = "*"
                if ((m, "parent") in varies || (m, "change") in varies) mark = mark "~"
                printf "%-28s %-6s %22s -> %-22s %s\n", m, unit[m], shown(m, "parent"), shown(m, "change"), mark
            }
        }' "$traced_table"

    echo
    if [ "$traced" = 1 ]; then
        echo "$workload: per-layer times and ratios, the same traced runs (informational)"
    else
        echo "$workload: per-layer times and ratios, median [min-max] of the same $traced traced runs per side"
    fi
    awk -F '\t' -v k="$traced" '
        $2 != "us" && $2 != "ratio" { next }
        !($1 in unit) { order[++n] = $1; unit[$1] = $2 }
        { cnt[$1, $3]++; val[$1, $3, cnt[$1, $3]] = $5 + 0 }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = a[i]
                for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                a[j + 1] = t
            }
        }
        # Median, min and max of one side of metric m, into med/min/max.
        function stats(m, side,    i, a, c) {
            c = cnt[m, side]
            if (!c) { med = "missing"; return 0 }
            for (i = 1; i <= c; i++) a[i] = val[m, side, i]
            sort(a, c)
            med = c % 2 ? a[(c + 1) / 2] : (a[c / 2] + a[c / 2 + 1]) / 2
            lo = a[1]; hi = a[c]
            return 1
        }
        END {
            for (i = 1; i <= n; i++) {
                m = order[i]
                hp = stats(m, "parent"); pm = med; pl = lo; ph = hi
                hc = stats(m, "change"); cm = med; cl = lo; ch = hi
                delta = (hp && hc && pm != 0) ? sprintf("%+8.1f%%", 100 * (cm - pm) / pm) : ""
                if (k == 1)
                    printf "%-28s %-6s %14.6g -> %-14.6g %s\n", m, unit[m], pm, cm, delta
                else
                    printf "%-28s %-6s %12.6g [%.6g-%.6g] -> %-12.6g [%.6g-%.6g] %s\n", m, unit[m], pm, pl, ph, cm, cl, ch, delta
            }
        }' "$traced_table"
}

first=1
for w in $workloads; do
    [ "$first" = 1 ] || echo
    first=0
    measure "$w"
done

if [ "$failures" -gt 0 ]; then
    echo "pairs: $failures run(s) reported failed > 0" >&2
    exit 1
fi
