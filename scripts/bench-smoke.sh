#!/usr/bin/env bash
# Hostbench smoke test: runs each benchmark workload for one second at
# seed 1, untraced, with the command BENCHMARK.json declares.
#
# A run must exit 0 — hostbench exits 1 on a wrong reply, a lost
# acknowledged SET, or a failed determinism self-check — and must print
# the pinned virtual-time digest of its deterministic segment. A digest
# change means the datapath's virtual behaviour moved: a change that
# means to move it re-pins the values below and says why.
#
# Run from the repository root: bash scripts/bench-smoke.sh
set -euo pipefail

pinned=(
    "udp_echo_64 0xb5a6d597e52696ac"
    "kv_pipeline_read 0x549b7b0e4449110f"
    "kv_open_write 0x0920384c383461a1"
)

status=0
for entry in "${pinned[@]}"; do
    read -r workload want <<<"$entry"
    out=$(cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
    got=$(sed -n 's/^segment: digest=\(0x[0-9a-f]*\).*/\1/p' <<<"$out")
    if [[ "$got" == "$want" ]]; then
        echo "bench-smoke: $workload ok (digest $got)"
    else
        echo "bench-smoke: $workload digest ${got:-missing}, pinned $want" >&2
        status=1
    fi
done
exit "$status"
