//! `udp_echo_64`: catnip↔catnip UDP echo of a 64 B payload, closed loop,
//! one client with one request outstanding.

use std::time::Instant;

use demikernel::libos::{LibOs, SocketKind};
use demikernel::testing::host_ip;
use demikernel::types::{OperationResult, QDesc, QToken};
use net_stack::types::SocketAddr;

use crate::bench::{Ctx, Workload};
use crate::rng::Rng;
use crate::trace::{span, Layer};
use crate::world::{Counters, World};

pub const PAYLOAD: usize = 64;
const CLIENT_PORT: u16 = 5000;
const ECHO_PORT: u16 = 7;
/// Round trips run during set-up (ARP resolution, pool warm-up).
const WARMUP_RTTS: u64 = 2_000;

pub struct Echo {
    w: World,
    rng: Rng,
    cq: QDesc,
    sq: QDesc,
    server_addr: SocketAddr,
    client_pop: QToken,
    server_pop: QToken,
    seq: u64,
}

impl Echo {
    pub fn setup(seed: u64, traced: bool) -> Self {
        let w = World::new(seed, traced, false);
        let cq = w.client.socket(SocketKind::Udp).expect("client socket");
        w.client
            .bind(cq, SocketAddr::new(host_ip(1), CLIENT_PORT))
            .expect("client bind");
        let sq = w.server.socket(SocketKind::Udp).expect("server socket");
        let server_addr = SocketAddr::new(host_ip(2), ECHO_PORT);
        w.server.bind(sq, server_addr).expect("server bind");
        let client_pop = w.client.pop(cq).expect("client pop");
        let server_pop = w.server.pop(sq).expect("server pop");
        let mut e = Echo {
            w,
            rng: Rng::new(seed),
            cq,
            sq,
            server_addr,
            client_pop,
            server_pop,
            seq: 0,
        };
        let mut warm = Ctx::new();
        while warm.completed < WARMUP_RTTS {
            e.step(&mut warm);
        }
        assert_eq!(
            warm.failed,
            0,
            "warm-up echoes must verify: {:?}",
            warm.errors()
        );
        e
    }
}

impl Workload for Echo {
    fn step(&mut self, ctx: &mut Ctx) {
        let req = self.seq;
        self.seq += 1;
        ctx.requests += 1;
        let (client, server) = (&self.w.client, &self.w.server);
        let mut expect = [0u8; PAYLOAD];
        expect[..8].copy_from_slice(&req.to_le_bytes());
        self.rng.fill(&mut expect[8..]);
        let mut sga = client.sgaalloc(PAYLOAD);
        sga.segments_mut()[0]
            .try_mut()
            .expect("fresh buffer")
            .copy_from_slice(&expect);

        let t0 = Instant::now();
        let v0 = self.w.rt.now();
        // Client sends; the server receives and echoes.
        let push = span(Layer::LibosPush, req, || {
            ctx.call(client.pushto(self.cq, &sga, self.server_addr))
        });
        let push = push.expect("client pushto");
        let r = span(Layer::Wait, req, || ctx.call(client.wait(push, None)));
        r.expect("client push completes");
        let got = span(Layer::Wait, req, || {
            ctx.call(server.wait(self.server_pop, None))
        });
        let OperationResult::Pop {
            from: Some(from),
            sga: request,
        } = got.expect("server pop completes")
        else {
            ctx.fail(1, || {
                format!("echo {req}: server pop did not return a datagram")
            });
            return;
        };
        let echo = span(Layer::LibosPush, req, || {
            ctx.call(server.pushto(self.sq, &request, from))
        });
        let echo = echo.expect("server pushto");
        let r = span(Layer::Wait, req, || ctx.call(server.wait(echo, None)));
        r.expect("server push completes");
        self.server_pop =
            span(Layer::LibosPop, req, || ctx.call(server.pop(self.sq))).expect("server pop");
        // The client receives the echo.
        let got = span(Layer::Wait, req, || {
            ctx.call(client.wait(self.client_pop, None))
        });
        let v1 = self.w.rt.now();
        self.client_pop =
            span(Layer::LibosPop, req, || ctx.call(client.pop(self.cq))).expect("client pop");
        ctx.host_lat_ns.push(t0.elapsed().as_nanos() as u64);

        let reply = match got {
            Ok(OperationResult::Pop { sga, .. }) => sga,
            other => {
                ctx.fail(1, || format!("echo {req}: client pop returned {other:?}"));
                return;
            }
        };
        let ok = match reply.segments() {
            [one] => one.as_slice() == expect,
            _ => reply.to_vec() == expect,
        };
        if !ok {
            ctx.fail(1, || format!("echo {req}: reply differs from the request"));
            return;
        }
        ctx.completed += 1;
        if ctx.recording {
            ctx.digest.u64(v1.as_nanos());
            ctx.digest.bytes(&expect);
            ctx.virt_lat_ns.push(v1.as_nanos() - v0.as_nanos());
        }
    }

    fn counters(&self) -> Counters {
        self.w.counters(0)
    }

    fn virt_now_ns(&self) -> u64 {
        self.w.rt.now().as_nanos()
    }

    fn finish(&mut self, _ctx: &mut Ctx) {}
}
