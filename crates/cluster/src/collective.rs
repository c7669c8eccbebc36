//! α–β cost model for the collectives parallel training uses.
//!
//! Ring algorithms (what NCCL uses at these scales):
//!
//! * all-reduce: `2·(n−1)/n · bytes / bw + 2·(n−1)·α`
//! * all-gather / reduce-scatter: `(n−1)/n · bytes / bw + (n−1)·α`
//! * point-to-point: `bytes / bw + α`
//!
//! where `bw` is the bottleneck per-member bandwidth of the group
//! ([`CommGroup::ring_link`]) — NVLink when the group fits a node, a
//! NIC share when it spans nodes.

use crate::spec::ClusterSpec;
use crate::topology::CommGroup;

/// Collective operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Reduce + broadcast (gradient sync, tensor-parallel activations).
    AllReduce,
    /// Gather shards onto every member (resharding).
    AllGather,
    /// Reduce into shards (resharding).
    ReduceScatter,
}

/// Time for a collective of `bytes` payload over `group`.
///
/// Returns 0 for trivial groups (size ≤ 1) or zero payload.
///
/// # Examples
///
/// ```
/// use aceso_cluster::{collective, ClusterSpec, Collective, CommGroup};
///
/// let cluster = ClusterSpec::v100(1, 8);
/// let tp = CommGroup::contiguous(0, 4);
/// let t = collective::collective_time(&cluster, Collective::AllReduce, 1 << 20, &tp);
/// assert!(t > 0.0);
/// ```
pub fn collective_time(
    cluster: &ClusterSpec,
    kind: Collective,
    bytes: u64,
    group: &CommGroup,
) -> f64 {
    if group.size <= 1 || bytes == 0 {
        return 0.0;
    }
    let n = group.size as f64;
    let (bw, alpha) = group.ring_link(cluster);
    let b = bytes as f64;
    match kind {
        Collective::AllReduce => 2.0 * (n - 1.0) / n * b / bw + 2.0 * (n - 1.0) * alpha,
        Collective::AllGather | Collective::ReduceScatter => {
            (n - 1.0) / n * b / bw + (n - 1.0) * alpha
        }
    }
}

/// Time to send `bytes` point-to-point between two global GPU ids
/// (pipeline stage boundaries).
pub fn p2p_time(cluster: &ClusterSpec, bytes: u64, from: usize, to: usize) -> f64 {
    if from == to || bytes == 0 {
        return 0.0;
    }
    let same_node = cluster.node_of(from) == cluster.node_of(to);
    let (bw, alpha) = if same_node {
        (cluster.nvlink_bw, cluster.lat_intra)
    } else {
        (cluster.ib_bw, cluster.lat_inter)
    };
    bytes as f64 / bw + alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::v100(4, 8)
    }

    #[test]
    fn trivial_cases_are_free() {
        let c = cluster();
        let g1 = CommGroup::contiguous(0, 1);
        assert_eq!(
            collective_time(&c, Collective::AllReduce, 1 << 20, &g1),
            0.0
        );
        let g2 = CommGroup::contiguous(0, 4);
        assert_eq!(collective_time(&c, Collective::AllReduce, 0, &g2), 0.0);
        assert_eq!(p2p_time(&c, 1 << 20, 3, 3), 0.0);
    }

    #[test]
    fn allreduce_double_of_allgather() {
        let c = cluster();
        let g = CommGroup::contiguous(0, 4);
        let ar = collective_time(&c, Collective::AllReduce, 1 << 26, &g);
        let ag = collective_time(&c, Collective::AllGather, 1 << 26, &g);
        assert!((ar / ag - 2.0).abs() < 0.05);
    }

    #[test]
    fn monotone_in_bytes() {
        let c = cluster();
        let g = CommGroup::contiguous(0, 8);
        let mut prev = 0.0;
        for sh in 10..30 {
            let t = collective_time(&c, Collective::AllReduce, 1 << sh, &g);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn cross_node_much_slower() {
        let c = cluster();
        let intra = CommGroup::contiguous(0, 8);
        let inter = CommGroup::contiguous(4, 8); // spans nodes 0 and 1
        let bytes = 1 << 28;
        let ti = collective_time(&c, Collective::AllReduce, bytes, &intra);
        let tx = collective_time(&c, Collective::AllReduce, bytes, &inter);
        assert!(tx > 3.0 * ti, "inter {tx} vs intra {ti}");
    }

    #[test]
    fn p2p_nvlink_vs_ib() {
        let c = cluster();
        let same = p2p_time(&c, 1 << 28, 0, 1);
        let cross = p2p_time(&c, 1 << 28, 7, 8);
        assert!(cross > 5.0 * same);
    }

    #[test]
    fn latency_floor_for_small_payloads() {
        let c = cluster();
        let g = CommGroup::contiguous(0, 8);
        let t = collective_time(&c, Collective::AllReduce, 4, &g);
        assert!(t >= 2.0 * 7.0 * c.lat_intra);
    }
}
