//! Golden mesh traces: seeded traffic on 4x4, 5x13 and 8x16 grids,
//! folded cycle by cycle into one FNV-1a digest per case.
//!
//! Every step folds the cycle, the settled flag, the fresh-delivery
//! list, every packet and AIM write drained, all `MeshStats` fields and
//! every router's monitors. The pinned digests are the behaviour
//! contract for any change to how `Mesh::step` or `Router::plan_into`
//! compute a cycle: a speed-only change must leave all three untouched.
//! The traffic itself lives in `common/traffic.rs`.

mod common;

use common::traffic::{drive, Case, Drained, CASES};
// The shared traffic module resolves these names through `crate::`.
use sirtm_noc::{Cycle, Mesh, MeshStats, NodeId, Packet, PacketId, PacketKind, Port};
use sirtm_noc::{RcapCommand, RouteMode, RouterConfig};

/// FNV-1a 64-bit, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }
}

fn fold_packet(h: &mut Fnv, pkt: &Packet) {
    h.u64(pkt.id.raw());
    h.u64(pkt.src.index() as u64);
    h.u64(pkt.dest.index() as u64);
    h.u64(pkt.task.index() as u64);
    h.u64(match pkt.kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Config(_) => 2,
    });
    h.u64(pkt.payload_flits as u64);
    h.u64(pkt.created_cycle);
    h.u64(pkt.bounces as u64);
}

fn fold_step(h: &mut Fnv, mesh: &Mesh, drained: &Drained) {
    h.u64(mesh.cycle());
    h.u64(mesh.is_settled_idle() as u64);
    h.u64(mesh.fresh_delivered().len() as u64);
    for &n in mesh.fresh_delivered() {
        h.u64(n as u64);
    }
    for (at, pkt) in &drained.delivered {
        h.u64(*at as u64);
        fold_packet(h, pkt);
    }
    for &(at, reg, value) in &drained.aim_writes {
        h.u64(at as u64);
        h.u64(reg as u64);
        h.u64(value as u64);
    }
    let s = mesh.stats();
    for v in [
        s.injected,
        s.delivered,
        s.dropped,
        s.config_consumed,
        s.latency_sum,
        s.latency_max,
        s.flit_hops,
    ] {
        h.u64(v);
    }
    h.u64(mesh.aim_writes_enqueued());
    for r in mesh.routers() {
        let m = r.monitors();
        for v in [
            m.routed_events,
            m.internal_deliveries,
            m.dropped_packets,
            m.blocked_head_cycles,
            m.forwarded_flits,
            m.rcap_commands,
        ] {
            h.u64(v);
        }
        h.opt(m.last_internal_cycle);
        h.opt(m.recent_routed.map(|(t, c)| ((t.index() as u64) << 48) ^ c));
        for &c in m.routed_per_task().iter().chain(m.internal_per_task()) {
            h.u64(c as u64);
        }
    }
}

/// What a case exercised, so a pin cannot silently stop covering a path.
#[derive(Debug, Default)]
struct Coverage {
    one_flit: bool,
    multi_flit: bool,
    settled: bool,
    aim_writes: u64,
}

fn digest(case: &Case) -> (u64, Coverage, MeshStats) {
    let mut h = Fnv::new();
    let mut cov = Coverage::default();
    let mut last = None;
    drive(
        case,
        |_| {},
        |mesh, drained| {
            fold_step(&mut h, mesh, drained);
            for (_, pkt) in &drained.delivered {
                cov.one_flit |= pkt.payload_flits == 0;
                cov.multi_flit |= pkt.payload_flits > 0;
            }
            cov.settled |= mesh.is_settled_idle();
            cov.aim_writes += drained.aim_writes.len() as u64;
            last = Some(mesh.stats());
        },
    );
    (h.0, cov, last.expect("at least one step"))
}

fn check(case: &Case, pinned: u64) {
    let (got, cov, stats) = digest(case);
    assert!(cov.one_flit && cov.multi_flit, "{}: {cov:?}", case.name);
    assert!(cov.settled, "{}: the quiet window never settled", case.name);
    assert!(cov.aim_writes > 0, "{}: no AIM write drained", case.name);
    assert!(
        stats.dropped > 0,
        "{}: no deadlock-recovery drop",
        case.name
    );
    assert!(
        stats.config_consumed > 0,
        "{}: no RCAP consumption",
        case.name
    );
    assert_eq!(
        got, pinned,
        "{}: mesh trace digest drifted ({got:#018x}); stats {stats:?}",
        case.name
    );
}

#[test]
fn golden_trace_4x4() {
    check(&CASES[0], 0xff60_606a_2f48_39cb);
}

#[test]
fn golden_trace_5x13() {
    check(&CASES[1], 0x4096_78b4_562c_376b);
}

#[test]
fn golden_trace_8x16() {
    check(&CASES[2], 0xfbe7_671b_6bd4_c82e);
}
