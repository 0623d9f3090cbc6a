#!/usr/bin/env bash
# Parallel stress run of the in-process runtime tests (gating in CI).
#
# Builds the `host` and `batching` integration-test binaries of
# newtop-runtime, then runs each of them ROUNDS times as nproc + 1
# copies at once, so the shard threads of every copy fight over the
# cores. Every copy runs with --test-threads=1 under `timeout 60`. A
# hung host call (exit 124) or any failing test fails the script.
#
# `tcp_host` and `peer_edges` are left out: they bind ephemeral ports,
# so parallel copies could collide.
#
# Usage: scripts/runtime_stress.sh [rounds]   (default 25)
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS="${1:-25}"
COPIES=$(($(nproc) + 1))
LIMIT=60

build_log="$(mktemp)"
logs="$(mktemp -d)"
trap 'rm -rf "$build_log" "$logs"' EXIT

cargo test -p newtop-runtime --test host --test batching --no-run 2>&1 | tee "$build_log" >&2
# cargo prints `Executable tests/host.rs (target/debug/deps/host-<hash>)`.
mapfile -t BINS < <(sed -n 's/.*Executable tests\/[a-z_]*\.rs (\(.*\))$/\1/p' "$build_log")
if [[ ${#BINS[@]} -ne 2 ]]; then
    echo "runtime_stress: expected 2 test binaries, found ${#BINS[@]}" >&2
    exit 2
fi

echo "runtime_stress: ${ROUNDS} rounds x ${COPIES} copies of ${BINS[*]}"
hangs=0
failures=0
start=$SECONDS
for ((round = 1; round <= ROUNDS; round++)); do
    for bin in "${BINS[@]}"; do
        pids=()
        names=()
        for ((c = 1; c <= COPIES; c++)); do
            log="$logs/$(basename "$bin")-r${round}-c${c}.log"
            timeout "$LIMIT" "$bin" --test-threads=1 -q >"$log" 2>&1 &
            pids+=("$!")
            names+=("$log")
        done
        for i in "${!pids[@]}"; do
            status=0
            wait "${pids[$i]}" || status=$?
            if [[ $status -eq 124 ]]; then
                hangs=$((hangs + 1))
                echo "runtime_stress: HANG (killed after ${LIMIT}s): ${names[$i]}" >&2
                cat "${names[$i]}" >&2
            elif [[ $status -ne 0 ]]; then
                failures=$((failures + 1))
                echo "runtime_stress: FAILED (exit $status): ${names[$i]}" >&2
                cat "${names[$i]}" >&2
            fi
        done
    done
done

runs=$((ROUNDS * COPIES * ${#BINS[@]}))
echo "runtime_stress: ${runs} runs, ${hangs} hangs, ${failures} failures in $((SECONDS - start))s"
[[ $hangs -eq 0 && $failures -eq 0 ]]
