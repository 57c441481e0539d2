//! The simulated world every workload runs in, and the exact counters
//! read from the layers' public stats APIs.

use demikernel::libos::catfs::Catfs;
use demikernel::libos::catnip::Catnip;
use demikernel::libos::LibOs;
use demikernel::runtime::Runtime;
use demikernel::testing::{host_ip, host_mac};
use demikernel::types::QDesc;
use net_stack::tcp::ConnId;
use sim_fabric::Fabric;
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};

use crate::trace::{self, Layer};

/// Both hosts on one runtime and one fabric, plus an optional catfs log
/// on an NVMe-class device.
pub struct World {
    pub rt: Runtime,
    pub fabric: Fabric,
    pub client: Catnip,
    pub server: Catnip,
    pub storage: Option<Storage>,
}

pub struct Storage {
    pub fs: Catfs,
    pub device: NvmeDevice,
    pub log: QDesc,
}

pub const LOG_PATH: &str = "kv.aof";

impl World {
    /// Builds the world. With `traced`, no-op brackets are registered
    /// around the pollers and deadline sources (see [`crate::trace`]).
    pub fn new(seed: u64, traced: bool, with_storage: bool) -> Self {
        let fabric = Fabric::new(seed);
        let rt = Runtime::with_fabric(fabric.clone());
        if traced {
            trace::register_open_brackets(&rt);
        }
        let client = Catnip::new(&rt, &fabric, host_mac(1), host_ip(1));
        let server = Catnip::new(&rt, &fabric, host_mac(2), host_ip(2));
        let storage = with_storage.then(|| {
            if traced {
                trace::register_mid_bracket(&rt);
            }
            let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
            let fs = Catfs::new(&rt, device.clone());
            let log = fs.create(LOG_PATH).expect("create the KV log");
            Storage { fs, device, log }
        });
        if traced {
            let last = if with_storage {
                Layer::FsPoll
            } else {
                Layer::NetPoll
            };
            trace::register_close_brackets(&rt, last);
        }
        World {
            rt,
            fabric,
            client,
            server,
            storage,
        }
    }

    /// Every exact counter the layers expose, by name. `tcp_conns` is the
    /// number of TCP connections each host opened: a fresh single-shard
    /// stack that never closes one numbers them `ConnId(0..n)`.
    pub fn counters(&self, tcp_conns: u32) -> Counters {
        let m = self.rt.metrics().snapshot();
        let s = self.rt.scheduler().stats();
        let f = self.fabric.stats();
        let mut c = Counters::default();
        c.put("runtime.wait_passes", m.wait_passes);
        c.put("runtime.wait_polls", m.wait_polls);
        c.put("runtime.completion_checks", m.completion_checks);
        c.put("runtime.wakeups", m.wakeups);
        c.put("libos.pushes", m.pushes);
        c.put("libos.pops", m.pops);
        c.put("mem.buffer_allocs", m.buffer_allocs);
        c.put("mem.buffer_copies", m.buffer_copies);
        c.put("mem.buffer_bytes_copied", m.buffer_bytes_copied);
        c.put("tcp.acks_coalesced", m.acks_coalesced);
        c.put("tcp.timers_scheduled", m.timers_scheduled);
        c.put("tcp.timers_fired", m.timers_fired);
        c.put("tcp.timers_stale", m.timers_stale);
        c.put("tcp.demux_lookups", m.demux_lookups);
        c.put("tcp.demux_cache_hits", m.demux_cache_hits);
        c.put("stack.rx_budget_exhausted", m.rx_budget_exhausted);
        c.put("sched.polls", s.polls);
        c.put("sched.passes", s.passes);
        c.put("sched.wakeups", s.wakeups);
        c.put("sched.spawned", s.spawned);
        c.put("sched.spurious_polls", s.spurious_polls);
        c.put("fabric.frames_sent", f.frames_sent);
        c.put("fabric.frames_delivered", f.frames_delivered);
        c.put("fabric.frames_dropped", f.frames_dropped);
        c.put("fabric.bytes_sent", f.bytes_sent);
        let mut retransmits = 0;
        for host in [&self.client, &self.server] {
            let st = host.stack().stats();
            c.add("stack.rx_frames", st.rx_frames);
            c.add("stack.tx_frames", st.tx_frames);
            c.add("stack.malformed", st.malformed);
            let p = host.port().stats();
            c.add("dpdk.tx_burst_calls", p.tx_burst_calls);
            c.add("dpdk.tx_frames", p.tx_frames);
            c.add("dpdk.rx_frames", p.rx_frames);
            c.add("dpdk.rx_ring_drops", p.rx_ring_drops);
            let t = host.stack().tcp_stats();
            c.add("tcp.demuxed", t.demuxed);
            c.add("tcp.resets_sent", t.resets_sent);
            c.add("tcp.unmatched", t.unmatched);
            for id in 0..tcp_conns {
                if let Ok(cb) = host.stack().tcp_conn_stats(ConnId(id)) {
                    retransmits += cb.retransmissions;
                }
            }
        }
        c.put("tcp.retransmits", retransmits);
        if let Some(st) = &self.storage {
            let fs = st.fs.stats();
            c.put("fs.appends", fs.appends);
            c.put("fs.block_writes", fs.block_writes);
            c.put("fs.checksum_failures", fs.checksum_failures);
            let n = st.device.stats();
            c.put("nvme.writes", n.writes);
            c.put("nvme.blocks_written", n.blocks_written);
            c.put("nvme.queue_full_rejections", n.queue_full_rejections);
        }
        c
    }
}

/// Named exact counters, in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    pub fn put(&mut self, name: &'static str, v: u64) {
        self.0.push((name, v));
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x += v,
            None => self.0.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// `self - earlier`, name by name.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|&(n, v)| (n, v.wrapping_sub(earlier.get(n))))
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}
