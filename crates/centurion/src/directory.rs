//! The neighbour-gossip task directory.
//!
//! The paper lists "signals from intelligence modules of neighbouring
//! nodes" among the AIM's monitors. SIRTM turns those neighbour wires into
//! a distance-vector directory: every gossip round a node rebuilds, per
//! task, up to five candidate instances — itself plus the best instance
//! known to each of its four neighbours one round ago. Information
//! propagates one hop per round, so an entry at distance *d* is *d* rounds
//! old; a staleness bound on distance flushes mirages (including
//! count-to-infinity loops) after at most `dist_max` rounds.
//!
//! Senders resolve a destination instance by round-robining over the
//! candidate slots, which spreads load across sibling instances in
//! different directions.

use sirtm_noc::NodeId;
use sirtm_taskgraph::TaskId;

/// A known task instance: where and how far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// The instance's node.
    pub node: NodeId,
    /// Hop distance when the entry was built (also its age in rounds).
    pub dist: u8,
}

/// Candidate slots per task: N, E, S, W neighbours' best plus self.
pub const SLOTS: usize = 5;

/// The self slot index.
pub const SELF_SLOT: usize = 4;

/// One node's directory: per task, up to [`SLOTS`] candidate instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    /// `entries[task * SLOTS + slot]`.
    entries: Vec<Option<DirEntry>>,
    /// Per-task round-robin pointer for sender-side load spreading.
    rr: Vec<u8>,
    n_tasks: usize,
}

impl Directory {
    /// Creates an empty directory for `n_tasks` tasks.
    pub fn new(n_tasks: usize) -> Self {
        Self {
            entries: vec![None; n_tasks * SLOTS],
            rr: vec![0; n_tasks],
            n_tasks,
        }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// The candidate in `slot` for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` or `slot` are out of range.
    pub fn slot(&self, task: TaskId, slot: usize) -> Option<DirEntry> {
        assert!(slot < SLOTS, "slot out of range");
        self.entries[task.index() * SLOTS + slot]
    }

    /// Writes the candidate in `slot` for `task` (used by the gossip
    /// update).
    pub fn set_slot(&mut self, task: TaskId, slot: usize, entry: Option<DirEntry>) {
        assert!(slot < SLOTS, "slot out of range");
        self.entries[task.index() * SLOTS + slot] = entry;
    }

    /// The nearest known instance of `task` (minimum distance, ties to
    /// the lowest node id for determinism).
    pub fn best(&self, task: TaskId) -> Option<DirEntry> {
        let base = task.index() * SLOTS;
        self.entries[base..base + SLOTS]
            .iter()
            .flatten()
            .copied()
            .min_by_key(|e| (e.dist, e.node))
    }

    /// Picks an instance of `task` for the next send, round-robining over
    /// the populated candidate slots to spread load across sibling
    /// instances. Returns `None` when no instance is known.
    pub fn pick(&mut self, task: TaskId) -> Option<NodeId> {
        let base = task.index() * SLOTS;
        let start = self.rr[task.index()] as usize;
        for k in 0..SLOTS {
            let slot = (start + k) % SLOTS;
            if let Some(e) = self.entries[base + slot] {
                self.rr[task.index()] = ((slot + 1) % SLOTS) as u8;
                return Some(e.node);
            }
        }
        None
    }

    /// The nearest known instance's node (the [`SendPolicy::Nearest`]
    /// resolution).
    ///
    /// [`SendPolicy::Nearest`]: crate::config::SendPolicy::Nearest
    pub fn pick_nearest(&self, task: TaskId) -> Option<NodeId> {
        self.best(task).map(|e| e.node)
    }

    /// Whether any instance of `task` is known.
    pub fn knows(&self, task: TaskId) -> bool {
        self.best(task).is_some()
    }

    /// Up to `k` *distinct* known instances of `task`, nearest first
    /// (ties to the lowest node id) — the destination set of a multicast
    /// fork wave. Allocates; the hot loop uses
    /// [`Directory::pick_distinct_into`].
    pub fn pick_distinct(&self, task: TaskId, k: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(k);
        self.pick_distinct_into(task, k, &mut out);
        out
    }

    /// Allocation-free [`Directory::pick_distinct`]: clears `out` and
    /// fills it with up to `k` distinct instances, nearest first. The
    /// candidate set is at most [`SLOTS`] entries, so ordering happens in
    /// a fixed stack buffer.
    pub fn pick_distinct_into(&self, task: TaskId, k: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let base = task.index() * SLOTS;
        let mut candidates = [None::<DirEntry>; SLOTS];
        let mut n = 0;
        for e in self.entries[base..base + SLOTS].iter().flatten() {
            // Insertion sort by (dist, node) into the fixed buffer.
            let mut i = n;
            while i > 0 {
                let prev = candidates[i - 1].expect("filled below i");
                if (prev.dist, prev.node) <= (e.dist, e.node) {
                    break;
                }
                candidates[i] = candidates[i - 1];
                i -= 1;
            }
            candidates[i] = Some(*e);
            n += 1;
        }
        for e in candidates[..n].iter().flatten() {
            // Distinct nodes only: the same instance can appear through
            // several neighbour slots at different distances.
            if !out.contains(&e.node) {
                out.push(e.node);
                if out.len() == k {
                    break;
                }
            }
        }
    }

    /// Clears every entry (used when a node dies).
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }
}

/// Computes one synchronous gossip round for the whole grid.
///
/// `locals[n]` is node `n`'s advertised task (alive nodes only);
/// `neighbours[n][d]` is the node index of `n`'s neighbour in direction
/// `d` (N, E, S, W), if any. Reads `prev`, writes a fresh set of tables.
///
/// Allocates the returned tables; the platform hot loop double-buffers
/// through [`gossip_round_into`] instead.
pub fn gossip_round(
    prev: &[Directory],
    locals: &[Option<TaskId>],
    neighbours: &[[Option<usize>; 4]],
    n_tasks: usize,
    dist_max: u8,
) -> Vec<Directory> {
    let mut next: Vec<Directory> = prev.to_vec();
    gossip_round_into(prev, locals, neighbours, n_tasks, dist_max, &mut next);
    next
}

/// Allocation-free [`gossip_round`]: recomputes every table of `next`
/// from `prev` in place. `next` must hold one directory per node, sized
/// for `n_tasks` (the platform's reused double buffer). Every entry slot
/// is overwritten and the sender-side round-robin pointers are carried
/// over from `prev`, so the result is identical to [`gossip_round`].
///
/// # Panics
///
/// Panics if `next` and `prev` differ in length or task count.
pub fn gossip_round_into(
    prev: &[Directory],
    locals: &[Option<TaskId>],
    neighbours: &[[Option<usize>; 4]],
    n_tasks: usize,
    dist_max: u8,
    next: &mut [Directory],
) {
    assert_eq!(prev.len(), next.len(), "grid size mismatch");
    for (n, dir) in next.iter_mut().enumerate() {
        assert_eq!(dir.n_tasks, prev[n].n_tasks, "task count mismatch");
        dir.rr.copy_from_slice(&prev[n].rr);
        for t in 0..n_tasks {
            let task = TaskId::new(t as u8);
            // Self slot: advertise own task at distance 0.
            let self_entry = (locals[n] == Some(task)).then_some(DirEntry {
                node: NodeId::new(n as u16),
                dist: 0,
            });
            dir.set_slot(task, SELF_SLOT, self_entry);
            // Neighbour slots: their best from the previous round, one
            // hop further and bounded by the staleness limit.
            for (d, link) in neighbours[n].iter().enumerate() {
                let entry = link.and_then(|m| prev[m].best(task)).and_then(|e| {
                    let dist = e.dist.saturating_add(1);
                    (dist <= dist_max).then_some(DirEntry { node: e.node, dist })
                });
                dir.set_slot(task, d, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_taskgraph::GridDims;

    fn line_neighbours(len: usize) -> Vec<[Option<usize>; 4]> {
        // A 1×len line: only east (slot 1) and west (slot 3) links.
        (0..len)
            .map(|i| {
                let mut nb = [None; 4];
                if i + 1 < len {
                    nb[1] = Some(i + 1);
                }
                if i > 0 {
                    nb[3] = Some(i - 1);
                }
                nb
            })
            .collect()
    }

    #[test]
    fn information_propagates_one_hop_per_round() {
        let n = 5;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        // Round 1 seeds node 0's self slot; each later round carries the
        // entry one hop further.
        for round in 1..=5 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 32);
            let reach = (0..n).filter(|&i| dirs[i].knows(TaskId::new(0))).count();
            assert_eq!(reach, round.min(n), "round {round}");
        }
        // Node 4 sees node 0 at distance 4.
        let e = dirs[4].best(TaskId::new(0)).expect("propagated");
        assert_eq!(e.node, NodeId::new(0));
        assert_eq!(e.dist, 4);
    }

    #[test]
    fn nearest_instance_wins() {
        let n = 5;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        locals[4] = Some(TaskId::new(0));
        for _ in 0..6 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 32);
        }
        // Node 1 is 1 hop from node 0 and 3 hops from node 4.
        assert_eq!(
            dirs[1].best(TaskId::new(0)).map(|e| e.node),
            Some(NodeId::new(0))
        );
        assert_eq!(
            dirs[3].best(TaskId::new(0)).map(|e| e.node),
            Some(NodeId::new(4))
        );
    }

    #[test]
    fn dead_instance_washes_out() {
        let n = 4;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        for _ in 0..6 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 8);
        }
        assert!(dirs[3].knows(TaskId::new(0)));
        // The instance dies: entries must vanish within dist_max rounds.
        locals[0] = None;
        for _ in 0..9 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 8);
        }
        for d in &dirs {
            assert!(!d.knows(TaskId::new(0)), "stale entry survived: {d:?}");
        }
    }

    #[test]
    fn staleness_bound_limits_reach() {
        let n = 6;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        for _ in 0..10 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 2);
        }
        assert!(dirs[2].knows(TaskId::new(0)), "within bound");
        assert!(!dirs[3].knows(TaskId::new(0)), "beyond dist_max 2");
    }

    #[test]
    fn pick_round_robins_over_candidates() {
        let mut d = Directory::new(1);
        let t = TaskId::new(0);
        d.set_slot(
            t,
            0,
            Some(DirEntry {
                node: NodeId::new(10),
                dist: 2,
            }),
        );
        d.set_slot(
            t,
            2,
            Some(DirEntry {
                node: NodeId::new(20),
                dist: 3,
            }),
        );
        let picks: Vec<NodeId> = (0..4).map(|_| d.pick(t).expect("known")).collect();
        assert_eq!(
            picks,
            vec![
                NodeId::new(10),
                NodeId::new(20),
                NodeId::new(10),
                NodeId::new(20)
            ]
        );
    }

    #[test]
    fn pick_unknown_task_is_none() {
        let mut d = Directory::new(2);
        assert_eq!(d.pick(TaskId::new(1)), None);
        assert!(!d.knows(TaskId::new(1)));
    }

    #[test]
    fn grid_neighbour_table_shape() {
        // Sanity-check the neighbour layout used by the platform on a
        // 2×2 grid via GridDims-style indexing.
        let dims = GridDims::new(2, 2);
        assert_eq!(dims.len(), 4);
        // node 0 = (0,0): E → 1, S → 2.
        // Built by the platform; here we just document the convention:
        // slots are N, E, S, W.
    }
}
