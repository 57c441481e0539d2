#!/usr/bin/env bash
# Hostbench smoke test: runs each benchmark workload for one second at
# seeds 1 and 7, untraced, with the command BENCHMARK.json declares.
#
# A run must exit 0 — hostbench exits 1 on a wrong reply, a lost
# acknowledged SET, or a failed determinism self-check — and must print
# the pinned virtual-time digest and the pinned exact counter deltas
# (`segment: counters`) of its deterministic segment. A digest or counter
# change means the datapath's virtual behaviour moved: a change that
# means to move it re-pins the values below and says why. Two seeds, so
# a change that happens to preserve one input stream still has to
# preserve another.
#
# Run from the repository root: bash scripts/bench-smoke.sh
set -euo pipefail

# One run per line: workload, seed, pinned digest.
pinned=(
    "udp_echo_64 1 0xb5a6d597e52696ac"
    "kv_pipeline_read 1 0x549b7b0e4449110f"
    "kv_open_write 1 0x0920384c383461a1"
    "udp_echo_64 7 0x7f8276bc6f34f01d"
    "kv_pipeline_read 7 0xc08b1b691d75c7f7"
    "kv_open_write 7 0x9bf75244174f69f7"
)

# Each run's `segment: counters` line, one counter per line.
declare -A counters
counters[udp_echo_64/1]="
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
counters[kv_pipeline_read/1]="
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
    tcp.timers_stale=34373
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
counters[kv_open_write/1]="
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
counters[udp_echo_64/7]="
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
counters[kv_pipeline_read/7]="
    runtime.wait_passes=84905
    runtime.wait_polls=68830
    runtime.completion_checks=1214877
    runtime.wakeups=35658
    libos.pushes=3064
    libos.pops=32593
    mem.buffer_allocs=45169
    mem.buffer_copies=11550
    mem.buffer_bytes_copied=1149911
    tcp.acks_coalesced=16996
    tcp.timers_scheduled=34822
    tcp.timers_fired=417
    tcp.timers_stale=34340
    tcp.demux_lookups=48186
    tcp.demux_cache_hits=46614
    stack.rx_budget_exhausted=0
    sched.polls=68830
    sched.passes=66325
    sched.wakeups=33172
    sched.spawned=35657
    sched.spurious_polls=0
    fabric.frames_sent=48192
    fabric.frames_delivered=48186
    fabric.frames_dropped=0
    fabric.bytes_sent=4159716
    stack.rx_frames=48186
    stack.tx_frames=48191
    stack.malformed=0
    dpdk.tx_burst_calls=18102
    dpdk.tx_frames=48192
    dpdk.rx_frames=48186
    dpdk.rx_ring_drops=0
    tcp.demuxed=48186
    tcp.resets_sent=0
    tcp.unmatched=0
    tcp.retransmits=0
    fs.appends=560
    fs.block_writes=579
    fs.checksum_failures=0
    nvme.writes=579
    nvme.blocks_written=579
    nvme.queue_full_rejections=0
    kv.commands=16048
    kv.bursts=1003
    kv.batches=561
    kv.logged_ops=819
    kv.protocol_errors=0
    kv.hits=15229
    kv.misses=0
    kv.sets=819
    kv.evictions=0
    kv.prepend_hits=4072
    kv.prepend_fallbacks=11157
    kv.reassembled_args=0
    kv.drains=1003
    kv.feeds=1003
    fs.records_durable=560
"
counters[kv_open_write/7]="
    runtime.wait_passes=13681
    runtime.wait_polls=8434
    runtime.completion_checks=3154665
    runtime.wakeups=5146
    libos.pushes=2476
    libos.pops=2670
    mem.buffer_allocs=5469
    mem.buffer_copies=1564
    mem.buffer_bytes_copied=1264020
    tcp.acks_coalesced=1351
    tcp.timers_scheduled=4450
    tcp.timers_fired=874
    tcp.timers_stale=3575
    tcp.demux_lookups=3988
    tcp.demux_cache_hits=1158
    stack.rx_budget_exhausted=0
    sched.polls=8434
    sched.passes=7434
    sched.wakeups=3289
    sched.spawned=5146
    sched.spurious_polls=0
    fabric.frames_sent=3985
    fabric.frames_delivered=3988
    fabric.frames_dropped=0
    fabric.bytes_sent=1114811
    stack.rx_frames=3988
    stack.tx_frames=3985
    stack.malformed=0
    dpdk.tx_burst_calls=3317
    dpdk.tx_frames=3985
    dpdk.rx_frames=3988
    dpdk.rx_ring_drops=0
    tcp.demuxed=3988
    tcp.resets_sent=0
    tcp.unmatched=0
    tcp.retransmits=0
    fs.appends=478
    fs.block_writes=619
    fs.checksum_failures=0
    nvme.writes=619
    nvme.blocks_written=619
    nvme.queue_full_rejections=0
    kv.commands=1000
    kv.bursts=1000
    kv.batches=478
    kv.logged_ops=478
    kv.protocol_errors=0
    kv.hits=235
    kv.misses=287
    kv.sets=478
    kv.evictions=226
    kv.prepend_hits=124
    kv.prepend_fallbacks=111
    kv.reassembled_args=133
    kv.drains=1204
    kv.feeds=1204
    fs.records_durable=478
"

# One `name=value` per line, so a mismatch diffs counter by counter.
one_per_line() {
    tr -s '[:space:]' '\n' <<<"$1" | sed '/^$/d'
}

status=0
for entry in "${pinned[@]}"; do
    read -r workload seed want <<<"$entry"
    run="$workload seed $seed"
    out=$(cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    got=$(sed -n 's/^segment: digest=\(0x[0-9a-f]*\).*/\1/p' <<<"$out")
    if [[ "$got" == "$want" ]]; then
        echo "bench-smoke: $run ok (digest $got)"
    else
        echo "bench-smoke: $run digest ${got:-missing}, pinned $want" >&2
        status=1
    fi
    got_counters=$(sed -n 's/^segment: counters //p' <<<"$out")
    if diff_out=$(diff <(one_per_line "${counters[$workload/$seed]}") \
        <(one_per_line "$got_counters")); then
        echo "bench-smoke: $run ok (counters)"
    else
        echo "bench-smoke: $run counters differ from the pinned line (< pinned, > got):" >&2
        echo "$diff_out" >&2
        status=1
    fi
done
exit "$status"
