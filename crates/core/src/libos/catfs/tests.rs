//! catfs tests: the single-application log layout.

use super::*;
use spdk_sim::nvme::NvmeConfig;

fn setup() -> (Runtime, Catfs, NvmeDevice) {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let catfs = Catfs::new(&rt, device.clone());
    (rt, catfs, device)
}

#[test]
fn push_pop_round_trip() {
    let (rt, fs, _dev) = setup();
    // A pop parked on an empty log: a rescue sweep would poll it unwoken
    // (a spurious poll), so zero spurious polls below proves each device
    // completion woke its command's waiter.
    let idle = fs.create("idle").unwrap();
    fs.pop(idle).unwrap();
    let qd = fs.create("kv-log").unwrap();
    fs.blocking_push(qd, &Sga::from_slice(b"record-1")).unwrap();
    fs.blocking_push(qd, &Sga::from_slice(b"record-2")).unwrap();
    let (_, r1) = fs.blocking_pop(qd).unwrap().expect_pop();
    let (_, r2) = fs.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(r1.to_vec(), b"record-1");
    assert_eq!(r2.to_vec(), b"record-2");
    assert_eq!(rt.scheduler().stats().spurious_polls, 0);
}

#[test]
fn small_appends_cost_one_block_write_each() {
    let (_rt, fs, dev) = setup();
    let qd = fs.create("log").unwrap();
    let before = dev.stats().blocks_written;
    for i in 0..10u8 {
        fs.blocking_push(qd, &Sga::from_slice(&[i; 100])).unwrap();
    }
    let per_append = (dev.stats().blocks_written - before) as f64 / 10.0;
    assert!(
        per_append <= 1.01,
        "log layout must write ~1 block per small append, got {per_append}"
    );
    assert_eq!(fs.stats().appends, 10);
}

#[test]
fn large_records_span_blocks() {
    let (_rt, fs, _dev) = setup();
    let qd = fs.create("big").unwrap();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 253) as u8).collect();
    fs.blocking_push(qd, &Sga::from_slice(&payload)).unwrap();
    let (_, got) = fs.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(got.to_vec(), payload);
}

#[test]
fn independent_readers_have_independent_cursors() {
    let (_rt, fs, _dev) = setup();
    let writer = fs.create("shared").unwrap();
    fs.blocking_push(writer, &Sga::from_slice(b"alpha"))
        .unwrap();
    fs.blocking_push(writer, &Sga::from_slice(b"beta")).unwrap();
    let r1 = fs.open("shared").unwrap();
    let r2 = fs.open("shared").unwrap();
    let (_, a) = fs.blocking_pop(r1).unwrap().expect_pop();
    let (_, b) = fs.blocking_pop(r2).unwrap().expect_pop();
    assert_eq!(a.to_vec(), b"alpha");
    assert_eq!(b.to_vec(), b"alpha", "each reader starts at the head");
}

#[test]
fn pop_blocks_until_push_like_a_queue() {
    let (_rt, fs, _dev) = setup();
    let qd = fs.create("tail").unwrap();
    let pop_qt = fs.pop(qd).unwrap();
    let push_qt = fs.push(qd, &Sga::from_slice(b"late")).unwrap();
    let results = fs.wait_all(&[pop_qt, push_qt], None).unwrap();
    let (_, sga) = results[0].clone().expect_pop();
    assert_eq!(sga.to_vec(), b"late");
}

#[test]
fn create_conflicts_and_missing_logs_error() {
    let (_rt, fs, _dev) = setup();
    fs.create("x").unwrap();
    assert!(fs.create("x").is_err());
    assert!(fs.open("y").is_err());
}

#[test]
fn recovery_rebuilds_a_log_from_the_device() {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    {
        let fs = Catfs::new(&rt, device.clone());
        let qd = fs.create("durable").unwrap();
        fs.blocking_push(qd, &Sga::from_slice(b"survives")).unwrap();
        fs.blocking_push(qd, &Sga::from_slice(b"reboots")).unwrap();
    }
    // "Reboot": a fresh catfs on the same device. The device reads the
    // original clock, so the new runtime must share it.
    let rt2 = Runtime::with_clock(rt.clock().clone());
    let fs2 = Catfs::new(&rt2, device);
    let qd = fs2.recover("durable").unwrap();
    let (_, a) = fs2.blocking_pop(qd).unwrap().expect_pop();
    let (_, b) = fs2.blocking_pop(qd).unwrap().expect_pop();
    assert_eq!(a.to_vec(), b"survives");
    assert_eq!(b.to_vec(), b"reboots");
}

#[test]
fn io_takes_virtual_time() {
    let (rt, fs, _dev) = setup();
    let qd = fs.create("timed").unwrap();
    let t0 = rt.now();
    fs.blocking_push(qd, &Sga::from_slice(&[1u8; 64])).unwrap();
    assert!(rt.now() > t0, "flash writes are not free");
}

#[test]
fn sockets_are_not_supported() {
    let (_rt, fs, _dev) = setup();
    assert!(matches!(
        fs.socket(crate::libos::SocketKind::Udp),
        Err(DemiError::NotSupported(_))
    ));
}
