//! Ready-made workload graphs, including the paper's Fig. 3 fork-join.

use crate::graph::{TaskGraph, TaskGraphBuilder};
use crate::task::TaskSpec;

/// Parameters of the fork-join workload (Fig. 3 of the paper).
///
/// Defaults reproduce the published experiment at the simulator's default
/// time base of 100 cycles per millisecond: task 1 produces one fork wave
/// every 4 ms; each wave spawns `branches` task-2 packets whose results join
/// at a task-3 node; every join emits one lightweight acknowledge packet
/// back towards task 1 (the graph's "in-tree phase").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ForkJoinParams {
    /// Fan-out of the fork (the paper's ratio 1:3:1 uses 3).
    pub branches: u8,
    /// Cycles between spontaneous task-1 waves (4 ms = 400 cycles).
    pub generation_period: u32,
    /// Task-1 service cycles per wave (packet assembly time).
    pub t1_service: u32,
    /// Task-2 service cycles per packet (the heavy worker stage).
    pub t2_service: u32,
    /// Task-3 service cycles per join.
    pub t3_service: u32,
    /// Payload flits of fork/work packets.
    pub data_flits: u8,
    /// Payload flits of the join→source acknowledge packets.
    pub ack_flits: u8,
}

impl Default for ForkJoinParams {
    fn default() -> Self {
        Self {
            branches: 3,
            generation_period: 400,
            t1_service: 20,
            t2_service: 300,
            t3_service: 100,
            data_flits: 4,
            ack_flits: 1,
        }
    }
}

/// Builds the paper's fork-join task graph (Fig. 3).
///
/// Task ids are `T0` = task 1 (source), `T1` = task 2 (fork workers),
/// `T2` = task 3 (join/sink), mirroring the paper's 1-based naming.
///
/// # Examples
///
/// ```
/// use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
///
/// let graph = fork_join(&ForkJoinParams::default());
/// assert_eq!(graph.len(), 3);
/// assert_eq!(graph.sources().len(), 1);
/// assert_eq!(graph.sinks().len(), 1);
/// ```
///
/// # Panics
///
/// Panics if `params.branches == 0`.
pub fn fork_join(params: &ForkJoinParams) -> TaskGraph {
    assert!(params.branches > 0, "fork-join needs at least one branch");
    let mut b = TaskGraphBuilder::new();
    let t1 = b.task(TaskSpec::source(
        "task1",
        params.t1_service,
        params.generation_period,
    ));
    let t2 = b.task(TaskSpec::worker("task2", params.t2_service));
    let t3 = b.task(TaskSpec::join("task3", params.t3_service, params.branches));
    b.data_edge(t1, t2, params.branches, params.data_flits);
    b.data_edge(t2, t3, 1, params.data_flits);
    b.feedback_edge(t3, t1, 1, params.ack_flits);
    b.build()
        .expect("fork-join parameters always form a valid graph")
}

/// Builds a linear pipeline of `stages` tasks (source first), each stage
/// forwarding one packet per completion. Useful as a second example
/// workload and in tests.
///
/// # Panics
///
/// Panics if `stages < 2`.
pub fn pipeline(stages: u8, generation_period: u32, service: u32) -> TaskGraph {
    assert!(stages >= 2, "a pipeline needs at least two stages");
    let mut b = TaskGraphBuilder::new();
    let first = b.task(TaskSpec::source("stage0", service, generation_period));
    let mut prev = first;
    for i in 1..stages {
        let t = b.task(TaskSpec::worker(format!("stage{i}"), service));
        b.data_edge(prev, t, 1, 2);
        prev = t;
    }
    b.feedback_edge(prev, first, 1, 1);
    b.build()
        .expect("pipeline parameters always form a valid graph")
}

/// Builds a diamond: source → two parallel workers → join, with an ack edge
/// back to the source. Exercises multi-path joins distinct from Fig. 3.
pub fn diamond(generation_period: u32) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let src = b.task(TaskSpec::source("split", 10, generation_period));
    let left = b.task(TaskSpec::worker("left", 200));
    let right = b.task(TaskSpec::worker("right", 250));
    let join = b.task(TaskSpec::join("merge", 60, 2));
    b.data_edge(src, left, 1, 3);
    b.data_edge(src, right, 1, 3);
    b.data_edge(left, join, 1, 2);
    b.data_edge(right, join, 1, 2);
    b.feedback_edge(join, src, 1, 1);
    b.build().expect("diamond is always a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;

    #[test]
    fn fork_join_shape() {
        let g = fork_join(&ForkJoinParams::default());
        assert_eq!(g.len(), 3);
        let t1 = g.sources()[0];
        assert_eq!(g.spec(t1).name, "task1");
        let fork_edge = g.outputs(t1).next().expect("t1 has an output");
        assert_eq!(fork_edge.count, 3);
        assert_eq!(fork_edge.kind, EdgeKind::Data);
        // The join has arity 3 and feeds back to the source.
        let t3 = g.sinks()[0];
        assert_eq!(g.spec(t3).join_arity, 3);
        let ack = g.outputs(t3).next().expect("t3 has the ack output");
        assert_eq!(ack.kind, EdgeKind::Feedback);
        assert_eq!(ack.to, t1);
    }

    #[test]
    fn fork_join_respects_branch_parameter() {
        let params = ForkJoinParams {
            branches: 5,
            ..ForkJoinParams::default()
        };
        let g = fork_join(&params);
        let t1 = g.sources()[0];
        assert_eq!(g.outputs(t1).next().map(|e| e.count), Some(5));
        assert_eq!(g.spec(g.sinks()[0]).join_arity, 5);
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn fork_join_zero_branches_panics() {
        let params = ForkJoinParams {
            branches: 0,
            ..ForkJoinParams::default()
        };
        fork_join(&params);
    }

    #[test]
    fn pipeline_shape() {
        let g = pipeline(4, 100, 50);
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.topological_order().len(), 4);
    }

    #[test]
    #[should_panic(expected = "two stages")]
    fn pipeline_too_short_panics() {
        pipeline(1, 100, 50);
    }

    #[test]
    fn diamond_shape() {
        let g = diamond(300);
        assert_eq!(g.len(), 4);
        assert_eq!(g.spec(g.sinks()[0]).join_arity, 2);
    }
}
