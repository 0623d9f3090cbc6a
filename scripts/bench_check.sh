#!/usr/bin/env bash
# Compares a fresh run of the per-message (`hot_paths`) and end-to-end
# (`runtime_load`) benches against the committed BENCH_*.json snapshots
# (the perf trajectory recorded by scripts/bench_snapshot.sh) and
# prints a regression table — into $GITHUB_STEP_SUMMARY when set (CI
# step summary), else to stdout. Snapshots do not all hold the same
# keys, so every snapshot is loaded in version order and each key's
# baseline is the newest snapshot that has it.
#
# Non-gating by design: shared-runner timing noise must not fail a PR, so
# this script always exits 0 (except when the bench itself fails to run).
# Humans read the Δ column; anything beyond ±25% deserves a look.
#
# Usage: scripts/bench_check.sh [baseline.json ...]
#   (default: every BENCH_*.json; later files override earlier ones)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    baselines=("$@")
else
    # Version sort: BENCH_PR2.json < BENCH_PR10.json.
    mapfile -t baselines < <(ls BENCH_*.json 2>/dev/null | sort -V || true)
fi
if [[ ${#baselines[@]} -eq 0 ]]; then
    echo "bench_check: no BENCH_*.json baseline found, nothing to compare" >&2
    exit 0
fi
for f in "${baselines[@]}"; do
    [[ -f "$f" ]] || { echo "bench_check: no such baseline: $f" >&2; exit 0; }
done

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for bench in hot_paths runtime_load; do
    echo "== cargo bench --bench $bench (baselines: ${baselines[*]})" >&2
    cargo bench --bench "$bench" 2>/dev/null | tee /dev/stderr >>"$raw"
done

out="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
{
    echo "### Bench check vs committed snapshots (non-gating)"
    echo ""
    echo "| benchmark | baseline | baseline ns/iter | current ns/iter | Δ |"
    echo "|---|---|---:|---:|---:|"
    awk -v bases="${baselines[*]}" '
        # Load {name: ns} pairs from every snapshot in order, so a later
        # snapshot overrides an earlier one key by key (portable awk:
        # snapshot lines look like `  "bench/name": 123.4,`).
        BEGIN {
            nb = split(bases, files, " ")
            for (f = 1; f <= nb; f++) {
                while ((getline line < files[f]) > 0) {
                    if (index(line, "\"") > 0 && index(line, ":") > 0) {
                        n = split(line, a, "\"")
                        if (n >= 3) {
                            v = a[3]
                            gsub(/[:,{} \t]/, "", v)
                            if (a[2] != "" && v + 0 > 0) {
                                ref[a[2]] = v + 0
                                src[a[2]] = files[f]
                            }
                        }
                    }
                }
                close(files[f])
            }
        }
        # The criterion shim prints one `<name> <ns> ns/iter` line each.
        / ns\/iter$/ {
            name = $1
            cur = $(NF - 1)
            if (name in ref && ref[name] > 0) {
                delta = (cur - ref[name]) * 100.0 / ref[name]
                mark = (delta > 25) ? " :warning:" : ""
                printf("| %s | %s | %s | %s | %+.1f%%%s |\n", name, src[name], ref[name], cur, delta, mark)
            } else {
                printf("| %s | — | — | %s | new |\n", name, cur)
            }
        }
    ' "$raw"
    echo ""
} >>"$out"
echo "bench_check: table written to ${GITHUB_STEP_SUMMARY:+step summary}${GITHUB_STEP_SUMMARY:-stdout}" >&2
exit 0
