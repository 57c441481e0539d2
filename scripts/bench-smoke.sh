#!/usr/bin/env bash
# Hostbench smoke test: runs each benchmark workload for one second at
# seed 1, untraced, with the command BENCHMARK.json declares.
#
# A run must exit 0 — hostbench exits 1 on a wrong reply, a lost
# acknowledged SET, or a failed determinism self-check — and must print
# the pinned virtual-time digest and the pinned exact counter deltas
# (`segment: counters`) of its deterministic segment. A digest or counter
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

# Each workload's seed-1 `segment: counters` line, one counter per line.
declare -A counters
counters[udp_echo_64]="
    runtime.wait_passes=24000
    runtime.wait_polls=24000
    runtime.completion_checks=32000
    runtime.wakeups=16000
    libos.pushes=8000
    libos.pops=8000
    mem.buffer_allocs=4000
    mem.buffer_copies=0
    mem.buffer_bytes_copied=0
    tcp.acks_coalesced=0
    tcp.timers_scheduled=0
    tcp.timers_fired=0
    tcp.timers_stale=0
    tcp.demux_lookups=0
    tcp.demux_cache_hits=0
    stack.rx_budget_exhausted=0
    sched.polls=24000
    sched.passes=20000
    sched.wakeups=8000
    sched.spawned=16000
    sched.spurious_polls=0
    fabric.frames_sent=8000
    fabric.frames_delivered=8000
    fabric.frames_dropped=0
    fabric.bytes_sent=848000
    stack.rx_frames=8000
    stack.tx_frames=8000
    stack.malformed=0
    dpdk.tx_burst_calls=8000
    dpdk.tx_frames=8000
    dpdk.rx_frames=8000
    dpdk.rx_ring_drops=0
    tcp.demuxed=0
    tcp.resets_sent=0
    tcp.unmatched=0
    tcp.retransmits=0
"
counters[kv_pipeline_read]="
    runtime.wait_passes=84781
    runtime.wait_polls=68739
    runtime.completion_checks=1213744
    runtime.wakeups=35624
    libos.pushes=3115
    libos.pops=32508
    mem.buffer_allocs=44786
    mem.buffer_copies=11256
    mem.buffer_bytes_copied=1133373
    tcp.acks_coalesced=16948
    tcp.timers_scheduled=34733
    tcp.timers_fired=420
    tcp.timers_stale=34316
    tcp.demux_lookups=48066
    tcp.demux_cache_hits=46434
    stack.rx_budget_exhausted=0
    sched.polls=68739
    sched.passes=66205
    sched.wakeups=33115
    sched.spawned=35623
    sched.spurious_polls=0
    fabric.frames_sent=48080
    fabric.frames_delivered=48066
    fabric.frames_dropped=0
    fabric.bytes_sent=4153391
    stack.rx_frames=48066
    stack.tx_frames=48079
    stack.malformed=0
    dpdk.tx_burst_calls=18090
    dpdk.tx_frames=48080
    dpdk.rx_frames=48066
    dpdk.rx_ring_drops=0
    tcp.demuxed=48066
    tcp.resets_sent=0
    tcp.unmatched=0
    tcp.retransmits=0
    fs.appends=586
    fs.block_writes=607
    fs.checksum_failures=0
    nvme.writes=607
    nvme.blocks_written=607
    nvme.queue_full_rejections=0
    kv.commands=16016
    kv.bursts=1001
    kv.batches=586
    kv.logged_ops=859
    kv.protocol_errors=0
    kv.hits=15157
    kv.misses=0
    kv.sets=859
    kv.evictions=0
    kv.prepend_hits=4283
    kv.prepend_fallbacks=10874
    kv.reassembled_args=0
    kv.drains=1001
    kv.feeds=1001
    fs.records_durable=586
"
counters[kv_open_write]="
    runtime.wait_passes=13731
    runtime.wait_polls=8476
    runtime.completion_checks=3164251
    runtime.wakeups=5163
    libos.pushes=2516
    libos.pops=2647
    mem.buffer_allocs=5528
    mem.buffer_copies=1585
    mem.buffer_bytes_copied=1316538
    tcp.acks_coalesced=1318
    tcp.timers_scheduled=4415
    tcp.timers_fired=889
    tcp.timers_stale=3524
    tcp.demux_lookups=3975
    tcp.demux_cache_hits=1081
    stack.rx_budget_exhausted=0
    sched.polls=8476
    sched.passes=7473
    sched.wakeups=3314
    sched.spawned=5163
    sched.spurious_polls=0
    fabric.frames_sent=3974
    fabric.frames_delivered=3975
    fabric.frames_dropped=0
    fabric.bytes_sent=1122551
    stack.rx_frames=3975
    stack.tx_frames=3974
    stack.malformed=0
    dpdk.tx_burst_calls=3328
    dpdk.tx_frames=3974
    dpdk.rx_frames=3975
    dpdk.rx_ring_drops=0
    tcp.demuxed=3975
    tcp.resets_sent=0
    tcp.unmatched=0
    tcp.retransmits=0
    fs.appends=517
    fs.block_writes=667
    fs.checksum_failures=0
    nvme.writes=667
    nvme.blocks_written=667
    nvme.queue_full_rejections=0
    kv.commands=1000
    kv.bursts=1000
    kv.batches=517
    kv.logged_ops=517
    kv.protocol_errors=0
    kv.hits=215
    kv.misses=268
    kv.sets=517
    kv.evictions=236
    kv.prepend_hits=116
    kv.prepend_fallbacks=99
    kv.reassembled_args=154
    kv.drains=1224
    kv.feeds=1224
    fs.records_durable=517
"

# One `name=value` per line, so a mismatch diffs counter by counter.
one_per_line() {
    tr -s '[:space:]' '\n' <<<"$1" | sed '/^$/d'
}

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
    got_counters=$(sed -n 's/^segment: counters //p' <<<"$out")
    if diff_out=$(diff <(one_per_line "${counters[$workload]}") \
        <(one_per_line "$got_counters")); then
        echo "bench-smoke: $workload ok (counters)"
    else
        echo "bench-smoke: $workload counters differ from the pinned line (< pinned, > got):" >&2
        echo "$diff_out" >&2
        status=1
    fi
done
exit "$status"
