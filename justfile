# Developer entry points. `just verify` is the pre-merge gate.

# Build, test, and lint — everything CI would reject. The release-mode
# zero_copy_memory run asserts the datapath counter invariants (1 alloc,
# 0 payload copies per packet) under the same optimization level E12 uses;
# the release-mode batching run asserts the E13 counter invariants the
# same way (single-doorbell TX bursts, delayed-ACK timing, O(1)
# completion delivery); the release-mode sharding run asserts the E14
# invariants (symmetric RSS, wheel-vs-linear timer equivalence, zero
# cross-shard traffic, silent timers for idle connections); the
# release-mode telemetry run asserts the E15 invariants (causally ordered
# spans, zero-alloc sample recording, bounded span ring, catnip tail
# beating the kernel baseline); the release-mode multicore run asserts
# the E16 invariants (byte streams identical across exec modes,
# cross-thread handoff delivery, bounded handoff drops, merged
# cross-thread metrics); the release-mode offload run asserts the E17
# invariants (device path observationally equivalent to host-only,
# mid-stream uninstall fallback, write-through cache coherence, per-slot
# device-cycle attribution); the release-mode timewait and conn_scale
# runs assert the E18 invariants (wire-identical compact TIME_WAIT,
# bounded idle footprint, O(backlog) SYN-flood memory, zero-alloc
# steady-state echo); the release-mode kv run asserts the E19 invariants
# (pipelined RESP bursts drained in one engine pass, zero payload copies
# through the warmed GET path, host/device cache write-through coherence,
# group-commit replay of exactly the acknowledged state); the release-mode
# tenant run asserts the E20 invariants (port-ownership gates, bounded
# per-tenant TX lanes, weighted-fair DRR even under sub-quantum budgets,
# token-bucket pacing on virtual time, partitioned SYN/TIME_WAIT state,
# cross-tenant buffer denial, and the hostile-neighbour differential
# property).
verify:
    cargo build --release
    cargo test -q --no-fail-fast
    cargo test --workspace -q --no-fail-fast
    cargo test --release -q --test zero_copy_memory
    cargo test --release -q --test batching
    cargo test --release -q --test sharding
    cargo test --release -q --test telemetry
    cargo test --release -q --test multicore
    cargo test --release -q --test offload
    cargo test --release -q --test timewait
    cargo test --release -q --test conn_scale
    cargo test --release -q --test kv
    cargo test --release -q --test tenant
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# Everything `verify` checks, across the whole workspace.
verify-all:
    cargo build --workspace --release
    cargo test --workspace -q --no-fail-fast
    DEMI_EXEC_MODE=threads cargo test -q --no-fail-fast
    cargo test --release -q --test zero_copy_memory
    cargo test --release -q --test batching
    cargo test --release -q --test sharding
    cargo test --release -q --test telemetry
    cargo test --release -q --test multicore
    cargo test --release -q --test offload
    cargo test --release -q --test timewait
    cargo test --release -q --test conn_scale
    cargo test --release -q --test kv
    cargo test --release -q --test tenant
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings

# Hostbench smoke: every benchmark workload for one second at seeds 1 and 7.
# Each run must exit 0 (correct replies, no lost acknowledged SET, a
# passing determinism self-check) and print its pinned virtual-time
# digest.
bench-smoke:
    bash scripts/bench-smoke.sh

# Regenerate every experiment table (E1–E20).
experiments:
    cargo bench -p demi-bench

# The zero-copy datapath experiment alone: asserted per-packet
# alloc/copy counters plus the prepend-vs-legacy-builders criterion A/B.
bench-datapath:
    cargo bench -p demi-bench --bench e12_datapath_copies

# The batching experiment alone: the coalesced-vs-per-frame A/B with its
# asserted handoff-amortization, ACK-coalescing, and latency bounds.
bench-batching:
    cargo bench -p demi-bench --bench e13_batching

# The sharding experiment alone: RSS flow affinity, idle-connection
# timer cost, and the 4-vs-1 shard makespan A/B with asserted bounds.
bench-sharding:
    cargo bench -p demi-bench --bench e14_sharding

# The tail-latency experiment alone: open-loop Poisson throughput–latency
# curves with asserted low-load, saturation, and zero-alloc bounds; the
# measured curve lands in target/e15_tail_latency.json.
bench-telemetry:
    cargo bench -p demi-bench --bench e15_tail_latency

# The multi-core experiment alone: fixed-ops echo and KV workloads over
# 4 shard worlds, sequential vs thread-per-shard wall clock, with the
# asserted mode-independence and tail bounds (the >= 3x speedup assert
# arms only on hosts with >= 4 CPUs).
bench-multicore:
    cargo bench -p demi-bench --bench e16_multicore

# The device-offload experiment alone: NIC-served echo and KV GET vs
# their host-served twins (asserted >= 80% host-work reduction, full
# device-side service, charged device cycles), the 1-submission 8-hop
# storage chase, and the zero-alloc in-place Map path; the NIC-served
# echo RTT curve lands in target/bench_e17.json.
bench-offload:
    cargo bench -p demi-bench --bench e17_offload

# The connection-scale experiment alone: 100k established connections on
# one peer with asserted idle bytes/conn, p99 flatness 100 -> 100k, a
# zero-alloc steady-state echo window, 10x SYN-flood isolation, and
# TIME_WAIT churn recycling; results land in target/e18_conn_scale.json.
bench-connscale:
    cargo bench -p demi-bench --bench e18_conn_scale

# The KV-server experiment alone: the Redis-class RESP server over
# catnip with asserted >= 4x pipelining speedup at depth 16, zero
# payload-byte copies per warmed GET, p99 flatness 1k -> 100k
# connections, an open-loop Poisson GET/SET curve, and crash-replay of
# exactly the acknowledged SETs; results land in target/e19_kv_server.json.
bench-kv:
    cargo bench -p demi-bench --bench e19_kv_server

# The multi-tenant isolation experiment alone: a hostile tenant flooding
# TX at 10x+ its fair share, leaking its pool dry, and spraying SYNs,
# with asserted victim bounds (p99 <= 2x the hostile-absent baseline,
# >= 90% of the weighted fair share, untouched SYN/TIME_WAIT partitions,
# zero cross-tenant buffer views) plus the shared-FIFO contrast case;
# results land in target/e20_tenant_isolation.json.
bench-tenant:
    cargo bench -p demi-bench --bench e20_tenant_isolation
