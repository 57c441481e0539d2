//! The NVMe-style device: queue pairs, async commands, polled completions.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use sim_fabric::{DeadlineHandle, SimClock, SimTime};

use crate::latency::FlashLatencyModel;

/// Logical block size in bytes (4 KiB, the native flash page).
pub const BLOCK_SIZE: usize = 4096;

/// Queue-pair handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpairId(pub u32);

/// Device construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NvmeConfig {
    /// Namespace capacity in blocks.
    pub namespace_blocks: u64,
    /// Maximum in-flight commands per queue pair.
    pub qpair_depth: usize,
    /// Service-time model.
    pub latency: FlashLatencyModel,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            namespace_blocks: 1 << 20, // 4 GiB at 4 KiB blocks.
            qpair_depth: 256,
            latency: FlashLatencyModel::default(),
        }
    }
}

/// Errors returned synchronously at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeError {
    /// Unknown queue pair.
    BadQpair,
    /// The queue pair already holds `qpair_depth` in-flight commands.
    QueueFull,
    /// LBA range exceeds the namespace.
    OutOfRange,
    /// Write data length is not a whole number of blocks.
    BadLength,
}

impl fmt::Display for NvmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmeError::BadQpair => write!(f, "bad queue pair"),
            NvmeError::QueueFull => write!(f, "queue pair full"),
            NvmeError::OutOfRange => write!(f, "LBA out of range"),
            NvmeError::BadLength => write!(f, "data length not block-aligned"),
        }
    }
}

impl std::error::Error for NvmeError {}

/// A completed command popped from a queue pair.
#[derive(Debug, Clone)]
pub struct NvmeCompletion {
    /// Caller-chosen command id.
    pub cmd_id: u64,
    /// Data, for reads (final block for chases).
    pub data: Option<Vec<u8>>,
    /// Device-side pointer hops taken (chase commands; 0 otherwise).
    pub hops: u32,
    /// Virtual instant the command completed inside the device.
    pub completed_at: SimTime,
}

/// Parameters of a device-side chained lookup ([`NvmeDevice::submit_chase`]).
///
/// This is the storage half of the offload-program model: a restricted,
/// verified "follow the pointer" program, not arbitrary code. Each block
/// carries a little-endian `u64` next-LBA at `pointer_offset`; the device
/// reads the start block and keeps following pointers *inside the device*
/// until it hits `sentinel`, runs out of `max_hops` budget, or a pointer
/// leaves the namespace. The host pays exactly one submission for the
/// whole walk; the device pays one flash read per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// First block of the chain.
    pub start_lba: u64,
    /// Byte offset of the `u64` little-endian next-pointer within each
    /// block; must leave room for 8 bytes (`<= BLOCK_SIZE - 8`).
    pub pointer_offset: usize,
    /// Pointer value that terminates the chain (the final block is
    /// returned). Unwritten blocks read as zero, so a zero sentinel
    /// terminates on any unwritten block.
    pub sentinel: u64,
    /// Hop budget: the walk stops after reading this many blocks even if
    /// no sentinel was found (bounds device work, like a verifier would).
    pub max_hops: u32,
}

/// Device counters (experiment E10 reads `blocks_written` for
/// write-amplification accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmeStats {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Flush commands completed.
    pub flushes: u64,
    /// Blocks read from media.
    pub blocks_read: u64,
    /// Blocks written to media.
    pub blocks_written: u64,
    /// Submissions rejected with `QueueFull`.
    pub queue_full_rejections: u64,
    /// Chase commands completed (each is ONE host submission).
    pub chases: u64,
    /// Total device-side pointer hops taken by chase commands.
    pub chase_hops: u64,
}

enum Command {
    Read {
        lba: u64,
        blocks: u64,
    },
    Write {
        lba: u64,
        data: Vec<u8>,
    },
    Flush,
    /// Chain walk, resolved at submission against current media state
    /// (the device sees its own media synchronously; the *latency* of
    /// every hop is still charged into the service time).
    Chase {
        hops: u32,
        data: Vec<u8>,
    },
}

struct InFlight {
    cmd_id: u64,
    complete_at: SimTime,
    command: Command,
}

struct Qpair {
    in_flight: VecDeque<InFlight>,
    busy_until: SimTime,
}

struct Inner {
    clock: SimClock,
    config: NvmeConfig,
    media: HashMap<u64, Box<[u8]>>,
    qpairs: HashMap<QpairId, Qpair>,
    next_qpair: u32,
    stats: NvmeStats,
    /// Where the earliest pending completion instant is published, once
    /// a runtime asked for it ([`NvmeDevice::publish_deadlines`]).
    deadline: Option<DeadlineHandle>,
}

/// One simulated NVMe namespace behind SPDK-style queue pairs.
///
/// Commands are asynchronous: submission returns immediately, and
/// completions become visible through [`NvmeDevice::poll_completions`] once
/// virtual time passes the command's service time. Commands on one queue
/// pair are serviced serially (per-queue flash channel); separate queue
/// pairs proceed in parallel.
#[derive(Clone)]
pub struct NvmeDevice {
    inner: Rc<RefCell<Inner>>,
}

impl NvmeDevice {
    /// Creates a device on the shared simulation clock.
    pub fn new(clock: SimClock, config: NvmeConfig) -> Self {
        NvmeDevice {
            inner: Rc::new(RefCell::new(Inner {
                clock,
                config,
                media: HashMap::new(),
                qpairs: HashMap::new(),
                next_qpair: 1,
                stats: NvmeStats::default(),
                deadline: None,
            })),
        }
    }

    /// Namespace capacity in blocks.
    pub fn namespace_blocks(&self) -> u64 {
        self.inner.borrow().config.namespace_blocks
    }

    /// Allocates an I/O queue pair.
    pub fn alloc_qpair(&self) -> QpairId {
        let mut inner = self.inner.borrow_mut();
        let id = QpairId(inner.next_qpair);
        inner.next_qpair += 1;
        inner.qpairs.insert(
            id,
            Qpair {
                in_flight: VecDeque::new(),
                busy_until: SimTime::ZERO,
            },
        );
        id
    }

    /// Submits an asynchronous read of `blocks` blocks starting at `lba`.
    pub fn submit_read(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        lba: u64,
        blocks: u64,
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        inner.check_range(lba, blocks)?;
        let service = inner.config.latency.read_time(blocks);
        inner.enqueue(qpair, cmd_id, service, Command::Read { lba, blocks })
    }

    /// Submits an asynchronous write of `data` (must be block-aligned)
    /// starting at `lba`.
    pub fn submit_write(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        lba: u64,
        data: &[u8],
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(NvmeError::BadLength);
        }
        let blocks = (data.len() / BLOCK_SIZE) as u64;
        inner.check_range(lba, blocks)?;
        let service = inner.config.latency.write_time(blocks);
        inner.enqueue(
            qpair,
            cmd_id,
            service,
            Command::Write {
                lba,
                data: data.to_vec(),
            },
        )
    }

    /// Submits a device-side chained lookup (see [`ChainSpec`]).
    ///
    /// An N-hop chain costs the host exactly one submission and one
    /// completion; the device charges N single-block read times into the
    /// command's service latency. The completion carries the final block
    /// (where the walk terminated) and the hop count.
    pub fn submit_chase(
        &self,
        qpair: QpairId,
        cmd_id: u64,
        spec: ChainSpec,
    ) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        if spec.pointer_offset + 8 > BLOCK_SIZE {
            return Err(NvmeError::BadLength);
        }
        if spec.max_hops == 0 {
            return Err(NvmeError::OutOfRange);
        }
        inner.check_range(spec.start_lba, 1)?;
        // Resolve the walk now (media mutations are synchronous at
        // submission in this device), charging one flash read per hop.
        let mut lba = spec.start_lba;
        let mut hops: u32 = 0;
        let mut service = SimTime::ZERO;
        let zero_block = [0u8; BLOCK_SIZE];
        let mut last: Vec<u8>;
        loop {
            let block: &[u8] = inner.media.get(&lba).map(|b| &b[..]).unwrap_or(&zero_block);
            hops += 1;
            service = service.saturating_add(inner.config.latency.read_time(1));
            last = block.to_vec();
            let next = u64::from_le_bytes(
                block[spec.pointer_offset..spec.pointer_offset + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            if next == spec.sentinel
                || hops >= spec.max_hops
                || next >= inner.config.namespace_blocks
            {
                break;
            }
            lba = next;
        }
        inner.stats.blocks_read += u64::from(hops);
        inner.enqueue(qpair, cmd_id, service, Command::Chase { hops, data: last })
    }

    /// Submits a flush (durability barrier).
    pub fn submit_flush(&self, qpair: QpairId, cmd_id: u64) -> Result<(), NvmeError> {
        let mut inner = self.inner.borrow_mut();
        let service = inner.config.latency.flush;
        inner.enqueue(qpair, cmd_id, service, Command::Flush)
    }

    /// Pops up to `max` completions whose service time has elapsed.
    pub fn poll_completions(&self, qpair: QpairId, max: usize) -> Vec<NvmeCompletion> {
        let mut inner = self.inner.borrow_mut();
        let now = inner.clock.now();
        let mut out = Vec::new();
        // Split borrows: temporarily detach the qpair queue.
        let Some(mut qp) = inner.qpairs.remove(&qpair) else {
            return out;
        };
        while out.len() < max {
            let Some(front) = qp.in_flight.front() else {
                break;
            };
            if front.complete_at > now {
                break;
            }
            let item = qp.in_flight.pop_front().expect("front exists");
            out.push(inner.execute(item));
        }
        inner.qpairs.insert(qpair, qp);
        if !out.is_empty() {
            inner.publish_deadline();
        }
        out
    }

    /// In-flight command count on a queue pair.
    pub fn in_flight(&self, qpair: QpairId) -> usize {
        self.inner
            .borrow()
            .qpairs
            .get(&qpair)
            .map_or(0, |q| q.in_flight.len())
    }

    /// Earliest pending completion instant across all queue pairs.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.inner.borrow().next_deadline()
    }

    /// From now on, publishes [`NvmeDevice::next_deadline`] through
    /// `deadline` whenever a submission or a reaped completion changes it,
    /// so the runtime rings the completion poller when a command is due.
    pub fn publish_deadlines(&self, deadline: DeadlineHandle) {
        let mut inner = self.inner.borrow_mut();
        inner.deadline = Some(deadline);
        inner.publish_deadline();
    }

    /// Device counters.
    pub fn stats(&self) -> NvmeStats {
        self.inner.borrow().stats
    }
}

impl Inner {
    fn next_deadline(&self) -> Option<SimTime> {
        self.qpairs
            .values()
            .filter_map(|q| q.in_flight.front().map(|c| c.complete_at))
            .min()
    }

    fn publish_deadline(&self) {
        if let Some(handle) = &self.deadline {
            handle.set(self.next_deadline());
        }
    }

    fn check_range(&self, lba: u64, blocks: u64) -> Result<(), NvmeError> {
        let end = lba.checked_add(blocks).ok_or(NvmeError::OutOfRange)?;
        if blocks == 0 || end > self.config.namespace_blocks {
            return Err(NvmeError::OutOfRange);
        }
        Ok(())
    }

    fn enqueue(
        &mut self,
        qpair: QpairId,
        cmd_id: u64,
        service: SimTime,
        command: Command,
    ) -> Result<(), NvmeError> {
        let now = self.clock.now();
        let depth = self.config.qpair_depth;
        let qp = self.qpairs.get_mut(&qpair).ok_or(NvmeError::BadQpair)?;
        if qp.in_flight.len() >= depth {
            self.stats.queue_full_rejections += 1;
            return Err(NvmeError::QueueFull);
        }
        let start = qp.busy_until.max(now);
        let complete_at = start.saturating_add(service);
        qp.busy_until = complete_at;
        qp.in_flight.push_back(InFlight {
            cmd_id,
            complete_at,
            command,
        });
        self.publish_deadline();
        Ok(())
    }

    fn execute(&mut self, item: InFlight) -> NvmeCompletion {
        let mut hops = 0;
        let data = match item.command {
            Command::Read { lba, blocks } => {
                self.stats.reads += 1;
                self.stats.blocks_read += blocks;
                let mut out = vec![0u8; (blocks as usize) * BLOCK_SIZE];
                for i in 0..blocks {
                    if let Some(block) = self.media.get(&(lba + i)) {
                        let off = (i as usize) * BLOCK_SIZE;
                        out[off..off + BLOCK_SIZE].copy_from_slice(block);
                    }
                }
                Some(out)
            }
            Command::Write { lba, data } => {
                self.stats.writes += 1;
                let blocks = (data.len() / BLOCK_SIZE) as u64;
                self.stats.blocks_written += blocks;
                for i in 0..blocks {
                    let off = (i as usize) * BLOCK_SIZE;
                    self.media.insert(
                        lba + i,
                        data[off..off + BLOCK_SIZE].to_vec().into_boxed_slice(),
                    );
                }
                None
            }
            Command::Flush => {
                self.stats.flushes += 1;
                None
            }
            Command::Chase { hops: h, data } => {
                self.stats.chases += 1;
                self.stats.chase_hops += u64::from(h);
                hops = h;
                Some(data)
            }
        };
        NvmeCompletion {
            cmd_id: item.cmd_id,
            data,
            hops,
            completed_at: item.complete_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> (SimClock, NvmeDevice) {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        (clock, dev)
    }

    /// Advances the clock far enough for everything submitted to finish.
    fn finish_all(clock: &SimClock) {
        clock.advance_by(SimTime::from_secs(1));
    }

    #[test]
    fn write_read_round_trip() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        let data = vec![0xAB; BLOCK_SIZE * 2];
        dev.submit_write(qp, 1, 10, &data).unwrap();
        finish_all(&clock);
        assert_eq!(dev.poll_completions(qp, 8).len(), 1);
        dev.submit_read(qp, 2, 10, 2).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].cmd_id, 2);
        assert_eq!(comps[0].data.as_deref(), Some(&data[..]));
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 500, 1).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps[0].data.as_deref(), Some(&vec![0u8; BLOCK_SIZE][..]));
    }

    #[test]
    fn completions_respect_virtual_time() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap(); // 10µs service time.
        assert!(dev.poll_completions(qp, 8).is_empty(), "not done yet");
        clock.advance_by(SimTime::from_micros(9));
        assert!(dev.poll_completions(qp, 8).is_empty(), "still not done");
        clock.advance_by(SimTime::from_micros(1));
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].completed_at, SimTime::from_micros(10));
    }

    #[test]
    fn qpair_serializes_commands() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap(); // Completes at 10µs.
        dev.submit_read(qp, 2, 0, 1).unwrap(); // Queued behind: 20µs.
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(dev.poll_completions(qp, 8).len(), 1);
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(dev.poll_completions(qp, 8).len(), 1);
    }

    #[test]
    fn separate_qpairs_run_in_parallel() {
        let (clock, dev) = device();
        let qp1 = dev.alloc_qpair();
        let qp2 = dev.alloc_qpair();
        dev.submit_read(qp1, 1, 0, 1).unwrap();
        dev.submit_read(qp2, 2, 0, 1).unwrap();
        clock.advance_by(SimTime::from_micros(10));
        assert_eq!(dev.poll_completions(qp1, 8).len(), 1);
        assert_eq!(dev.poll_completions(qp2, 8).len(), 1);
    }

    #[test]
    fn queue_depth_is_enforced() {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(
            clock,
            NvmeConfig {
                qpair_depth: 2,
                ..NvmeConfig::default()
            },
        );
        let qp = dev.alloc_qpair();
        dev.submit_read(qp, 1, 0, 1).unwrap();
        dev.submit_read(qp, 2, 0, 1).unwrap();
        assert_eq!(dev.submit_read(qp, 3, 0, 1), Err(NvmeError::QueueFull));
        assert_eq!(dev.stats().queue_full_rejections, 1);
    }

    #[test]
    fn out_of_range_and_bad_length_rejected() {
        let (_clock, dev) = device();
        let qp = dev.alloc_qpair();
        let max = dev.namespace_blocks();
        assert_eq!(dev.submit_read(qp, 1, max, 1), Err(NvmeError::OutOfRange));
        assert_eq!(dev.submit_read(qp, 1, 0, 0), Err(NvmeError::OutOfRange));
        assert_eq!(
            dev.submit_write(qp, 1, 0, &[1, 2, 3]),
            Err(NvmeError::BadLength)
        );
        assert_eq!(dev.submit_write(qp, 1, 0, &[]), Err(NvmeError::BadLength));
    }

    #[test]
    fn flush_completes_and_counts() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_flush(qp, 9).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps[0].cmd_id, 9);
        assert!(comps[0].data.is_none());
        assert_eq!(dev.stats().flushes, 1);
    }

    #[test]
    fn stats_track_block_counts_for_write_amp() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        dev.submit_write(qp, 1, 0, &vec![1u8; BLOCK_SIZE * 3])
            .unwrap();
        dev.submit_read(qp, 2, 0, 2).unwrap();
        finish_all(&clock);
        let _ = dev.poll_completions(qp, 8);
        let s = dev.stats();
        assert_eq!(s.blocks_written, 3);
        assert_eq!(s.blocks_read, 2);
    }

    /// The earliest completion, pulled and as published to a runtime's
    /// deadline index on every submission and reap.
    #[test]
    fn next_deadline_reports_earliest_completion() {
        let (clock, dev) = device();
        let index = sim_fabric::DeadlineIndex::new();
        dev.publish_deadlines(index.handle(sim_fabric::Doorbell::new()));
        let published = || index.earliest_after(SimTime::ZERO);
        let qp1 = dev.alloc_qpair();
        let qp2 = dev.alloc_qpair();
        dev.submit_write(qp1, 1, 0, &vec![0u8; BLOCK_SIZE]).unwrap(); // 20µs
        assert_eq!(published(), Some(SimTime::from_micros(20)));
        dev.submit_read(qp2, 2, 0, 1).unwrap(); // 10µs
        assert_eq!(dev.next_deadline(), Some(SimTime::from_micros(10)));
        assert_eq!(published(), dev.next_deadline());
        clock.advance_by(SimTime::from_micros(10));
        let _ = dev.poll_completions(qp2, 8);
        assert_eq!(dev.next_deadline(), Some(SimTime::from_micros(20)));
        assert_eq!(published(), dev.next_deadline());
    }

    /// Writes a block whose `pointer_offset` bytes name `next`, with the
    /// rest filled with `fill`.
    fn write_chain_block(
        dev: &NvmeDevice,
        clock: &SimClock,
        qp: QpairId,
        lba: u64,
        next: u64,
        fill: u8,
    ) {
        let mut block = vec![fill; BLOCK_SIZE];
        block[0..8].copy_from_slice(&next.to_le_bytes());
        dev.submit_write(qp, 1000 + lba, lba, &block).unwrap();
        finish_all(clock);
        let _ = dev.poll_completions(qp, 8);
    }

    fn chain_spec(start_lba: u64) -> ChainSpec {
        ChainSpec {
            start_lba,
            pointer_offset: 0,
            sentinel: u64::MAX,
            max_hops: 16,
        }
    }

    #[test]
    fn chase_follows_chain_in_one_submission() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        // 10 → 20 → 30 → end.
        write_chain_block(&dev, &clock, qp, 10, 20, 0xA);
        write_chain_block(&dev, &clock, qp, 20, 30, 0xB);
        write_chain_block(&dev, &clock, qp, 30, u64::MAX, 0xC);
        let before = dev.stats();
        dev.submit_chase(qp, 7, chain_spec(10)).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].cmd_id, 7);
        assert_eq!(comps[0].hops, 3);
        let data = comps[0].data.as_ref().unwrap();
        assert_eq!(data[8], 0xC, "final block returned");
        let s = dev.stats();
        assert_eq!(s.chases - before.chases, 1, "one host submission");
        assert_eq!(s.chase_hops - before.chase_hops, 3);
        assert_eq!(s.reads, before.reads, "no per-hop host read commands");
        assert_eq!(
            s.blocks_read - before.blocks_read,
            3,
            "media reads are real"
        );
    }

    #[test]
    fn chase_charges_per_hop_latency() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        write_chain_block(&dev, &clock, qp, 10, 20, 0);
        write_chain_block(&dev, &clock, qp, 20, u64::MAX, 0);
        let start = clock.now();
        dev.submit_chase(qp, 1, chain_spec(10)).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        let per_hop = FlashLatencyModel::default().read_time(1);
        assert_eq!(
            comps[0].completed_at,
            start.saturating_add(per_hop).saturating_add(per_hop),
            "an N-hop chase costs N single-block read times"
        );
    }

    #[test]
    fn chase_respects_hop_budget_and_bad_pointers() {
        let (clock, dev) = device();
        let qp = dev.alloc_qpair();
        // A 2-cycle loop: the hop budget is the only terminator.
        write_chain_block(&dev, &clock, qp, 10, 20, 0);
        write_chain_block(&dev, &clock, qp, 20, 10, 0);
        dev.submit_chase(
            qp,
            1,
            ChainSpec {
                max_hops: 5,
                ..chain_spec(10)
            },
        )
        .unwrap();
        finish_all(&clock);
        assert_eq!(dev.poll_completions(qp, 8)[0].hops, 5);
        // A pointer outside the namespace stops the walk at that block.
        write_chain_block(&dev, &clock, qp, 40, dev.namespace_blocks() + 7, 0xD);
        dev.submit_chase(qp, 2, chain_spec(40)).unwrap();
        finish_all(&clock);
        let comps = dev.poll_completions(qp, 8);
        assert_eq!(comps[0].hops, 1);
        assert_eq!(comps[0].data.as_ref().unwrap()[8], 0xD);
    }

    #[test]
    fn chase_rejects_bad_specs() {
        let (_clock, dev) = device();
        let qp = dev.alloc_qpair();
        assert_eq!(
            dev.submit_chase(
                qp,
                1,
                ChainSpec {
                    pointer_offset: BLOCK_SIZE - 7,
                    ..chain_spec(0)
                }
            ),
            Err(NvmeError::BadLength)
        );
        assert_eq!(
            dev.submit_chase(
                qp,
                1,
                ChainSpec {
                    max_hops: 0,
                    ..chain_spec(0)
                }
            ),
            Err(NvmeError::OutOfRange)
        );
        assert_eq!(
            dev.submit_chase(qp, 1, chain_spec(dev.namespace_blocks())),
            Err(NvmeError::OutOfRange)
        );
    }

    #[test]
    fn bad_qpair_rejected() {
        let (_clock, dev) = device();
        assert_eq!(
            dev.submit_read(QpairId(99), 1, 0, 1),
            Err(NvmeError::BadQpair)
        );
        assert!(dev.poll_completions(QpairId(99), 8).is_empty());
    }
}
