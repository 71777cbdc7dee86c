//! Seeded mesh traffic shared by the golden-trace test
//! (`tests/golden_trace.rs`) and the active-set invariant test in
//! `src/mesh.rs`.
//!
//! One script drives every mesh entry point the simulator uses:
//! injections of 1-flit and multi-flit packets, bounces through
//! `reinject`, RCAP config packets (port disables and re-enables, route
//! mode switches, AIM writes), the direct debug path, direct
//! `enqueue_inject` and `kill` through `router_mut` in mid-flight, and
//! AIM-style register drains through `aim_router_mut`. A short deadlock
//! timeout plus the disabled ports and dead tiles make deadlock recovery
//! drop packets. A quiet window in the middle lets the fabric drain and
//! settle before traffic wakes it again, and a quiet tail drains it at
//! the end.
//!
//! The module names its imports through `crate::`, so it compiles both
//! inside the library's unit tests and inside an integration test whose
//! root imports the same names from `sirtm_noc`.

use crate::{Cycle, RouterConfig};
use crate::{Mesh, NodeId, Packet, PacketId, PacketKind, Port, RcapCommand, RouteMode};
use sirtm_taskgraph::{GridDims, TaskId};

/// One seeded traffic case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Label used in assertion messages.
    pub name: &'static str,
    /// Grid width in routers.
    pub width: u16,
    /// Grid height in routers.
    pub height: u16,
    /// Seed of the traffic generator.
    pub seed: u64,
    /// Cycles stepped, quiet tail included.
    pub cycles: Cycle,
}

/// 16 routers, 65 (which crosses a 64-bit word) and the paper's 128.
pub const CASES: [Case; 3] = [
    Case {
        name: "4x4",
        width: 4,
        height: 4,
        seed: 0x4404,
        cycles: 2_500,
    },
    Case {
        name: "5x13",
        width: 5,
        height: 13,
        seed: 0x5513,
        cycles: 2_500,
    },
    Case {
        name: "8x16",
        width: 8,
        height: 16,
        seed: 0x8816,
        cycles: 2_500,
    },
];

/// What one step drained from the mesh, in drain order.
#[derive(Debug, Default)]
pub struct Drained {
    /// Packets popped from delivery queues, with the receiving node.
    pub delivered: Vec<(u16, Packet)>,
    /// AIM register writes popped, with the receiving node.
    pub aim_writes: Vec<(u16, u8, u8)>,
}

/// SplitMix64: a tiny, fixed generator so the traffic never depends on
/// another crate's sequence.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `true` with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

const LINK_PORTS: [Port; 4] = [Port::North, Port::East, Port::South, Port::West];
const MODES: [RouteMode; 3] = [RouteMode::Xy, RouteMode::Yx, RouteMode::Adaptive];

/// Runs `case`, calling `observe` after every step with the mesh and
/// what the step's drains popped. Between steps, `before_step` may
/// mutate the mesh (the invariant test checks the active set there).
pub fn drive(
    case: &Case,
    mut before_step: impl FnMut(&mut Mesh),
    mut observe: impl FnMut(&Mesh, &Drained),
) {
    let dims = GridDims::new(case.width, case.height);
    let n = dims.len() as u64;
    let config = RouterConfig {
        deadlock_timeout: 40,
        redirect_age: 60,
        ..RouterConfig::default()
    };
    let mut mesh = Mesh::new(dims, config);
    let mut rng = SplitMix(case.seed);
    let node = |rng: &mut SplitMix| NodeId::new(rng.below(n) as u16);

    // Start a third of the fabric adaptive, and let a few routers absorb
    // aged packets of their task.
    for i in 0..n as u16 {
        if i % 3 == 0 {
            mesh.apply_config_direct(
                NodeId::new(i),
                RcapCommand::SetRouteMode(RouteMode::Adaptive),
            );
        }
        if i % 5 == 2 {
            let s = mesh.router_mut(NodeId::new(i)).settings_mut();
            s.opportunistic_delivery = true;
            s.local_task = Some(TaskId::new((i % 3) as u8));
        }
    }

    let quiet = case.cycles * 2 / 5..case.cycles / 2;
    let tail = case.cycles - 300;
    let kills = [case.cycles * 3 / 5, case.cycles * 7 / 10];
    let mut disabled: Vec<(NodeId, Port)> = Vec::new();
    let mut direct_ids = u64::MAX;
    let mut drained = Drained::default();

    for cycle in 0..case.cycles {
        let busy = !quiet.contains(&cycle) && cycle < tail;
        if busy {
            for _ in 0..rng.below(n / 32 + 2) {
                let src = node(&mut rng);
                if !mesh.router(src).settings().alive {
                    continue;
                }
                let dest = node(&mut rng);
                let task = TaskId::new(rng.below(3) as u8);
                let kind = if rng.chance(200) {
                    PacketKind::Ack
                } else {
                    PacketKind::Data
                };
                let payload = if rng.chance(400) {
                    0
                } else {
                    1 + rng.below(6) as u8
                };
                mesh.inject(src, dest, task, kind, payload);
            }
            if rng.chance(6) {
                // RCAP port disable, carried by a config packet.
                let (src, dest) = (node(&mut rng), node(&mut rng));
                let port = LINK_PORTS[rng.below(4) as usize];
                if mesh.router(src).settings().alive {
                    mesh.send_config(src, dest, RcapCommand::SetPortEnabled(port, false));
                    disabled.push((dest, port));
                }
            }
            if rng.chance(4) {
                let (src, dest) = (node(&mut rng), node(&mut rng));
                let mode = MODES[rng.below(3) as usize];
                if mesh.router(src).settings().alive {
                    mesh.send_config(src, dest, RcapCommand::SetRouteMode(mode));
                }
            }
            if rng.chance(10) {
                let (src, dest) = (node(&mut rng), node(&mut rng));
                let (reg, value) = (rng.below(8) as u8, rng.next() as u8);
                if mesh.router(src).settings().alive {
                    mesh.send_config(src, dest, RcapCommand::AimWrite { reg, value });
                }
            }
            if rng.chance(3) {
                let dest = node(&mut rng);
                let (reg, value) = (rng.below(8) as u8, rng.next() as u8);
                mesh.apply_config_direct(dest, RcapCommand::AimWrite { reg, value });
            }
            if rng.chance(3) {
                // A packet queued straight into a router's injection
                // queue, bypassing `Mesh::inject` and its statistics.
                let src = node(&mut rng);
                if mesh.router(src).settings().alive {
                    let pkt = Packet {
                        id: PacketId::new(direct_ids),
                        src,
                        dest: node(&mut rng),
                        task: TaskId::new(rng.below(3) as u8),
                        kind: PacketKind::Data,
                        payload_flits: rng.below(4) as u8,
                        created_cycle: cycle,
                        bounces: 0,
                    };
                    direct_ids -= 1;
                    mesh.router_mut(src).enqueue_inject(pkt);
                }
            }
        }
        if !disabled.is_empty() && rng.chance(8) {
            // Re-enable the oldest disabled port through the debug path.
            let (dest, port) = disabled.remove(0);
            mesh.apply_config_direct(dest, RcapCommand::SetPortEnabled(port, true));
        }
        if kills.contains(&cycle) {
            // Kill a tile in mid-flight: prefer one holding traffic.
            let start = rng.below(n);
            let victim = (0..n)
                .map(|k| NodeId::new(((start + k) % n) as u16))
                .find(|&v| mesh.router(v).has_work())
                .unwrap_or(NodeId::new(start as u16));
            mesh.router_mut(victim).kill();
        }

        before_step(&mut mesh);
        mesh.step();

        drained.delivered.clear();
        drained.aim_writes.clear();
        for k in 0..mesh.fresh_delivered().len() {
            let at = mesh.fresh_delivered()[k];
            while let Some(pkt) = mesh.pop_delivered(NodeId::new(at)) {
                drained.delivered.push((at, pkt));
            }
        }
        for &(at, pkt) in &drained.delivered {
            // Bounce some deliveries on, as the platform does with a
            // packet whose task moved away.
            if busy && pkt.bounces < 2 && rng.chance(100) {
                mesh.reinject(NodeId::new(at), pkt, node(&mut rng));
            }
        }
        for at in 0..n as u16 {
            // AIM scans drain their register writes on a staggered period.
            if (cycle + at as u64).is_multiple_of(16) {
                let router = mesh.aim_router_mut(NodeId::new(at));
                while let Some((reg, value)) = router.pop_aim_write() {
                    drained.aim_writes.push((at, reg, value));
                }
            }
        }
        observe(&mesh, &drained);
    }
}
