//! Device ranges and communication groups.

use crate::spec::ClusterSpec;

/// A contiguous range of global GPU ids (pipeline stages own one each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceRange {
    /// First global GPU id.
    pub start: usize,
    /// Number of GPUs.
    pub len: usize,
}

impl DeviceRange {
    /// Creates a range.
    pub fn new(start: usize, len: usize) -> Self {
        Self { start, len }
    }

    /// One-past-the-end GPU id.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether the range spans more than one node of `cluster`.
    pub fn crosses_nodes(&self, cluster: &ClusterSpec) -> bool {
        self.len > 0 && cluster.node_of(self.start) != cluster.node_of(self.end() - 1)
    }
}

/// A strided communication group: members are
/// `start, start + stride, …, start + (size-1)·stride`.
///
/// Within a pipeline stage holding GPUs `[start, start+dp·tp)`, the tensor-
/// parallel groups are the contiguous sub-ranges of size `tp`
/// (`stride == 1`) and the data-parallel groups are strided by `tp` — so tp
/// traffic stays on NVLink as long as `tp ≤ gpus_per_node`, matching how
/// Megatron-LM packs groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommGroup {
    /// First member's global GPU id.
    pub start: usize,
    /// Number of members.
    pub size: usize,
    /// Id distance between consecutive members.
    pub stride: usize,
}

impl CommGroup {
    /// A contiguous group.
    pub fn contiguous(start: usize, size: usize) -> Self {
        Self {
            start,
            size,
            stride: 1,
        }
    }

    /// A strided group.
    pub fn strided(start: usize, size: usize, stride: usize) -> Self {
        Self {
            start,
            size,
            stride: stride.max(1),
        }
    }

    /// Iterates over member GPU ids.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.size).map(move |k| self.start + k * self.stride)
    }

    /// Whether any two members live on different nodes.
    ///
    /// Members increase and [`ClusterSpec::node_of`] is monotone, so the
    /// group spans nodes exactly when its first and last members do.
    pub fn crosses_nodes(&self, cluster: &ClusterSpec) -> bool {
        self.size > 1
            && cluster.node_of(self.start)
                != cluster.node_of(self.start + (self.size - 1) * self.stride)
    }

    /// Maximum number of group members that share one node.
    ///
    /// When a ring collective crosses nodes, all those members' ring links
    /// funnel through the node's single NIC, dividing its bandwidth. A
    /// node's members are one run of consecutive members (see
    /// [`Self::crosses_nodes`]), so one pass counts the longest run.
    pub fn max_members_per_node(&self, cluster: &ClusterSpec) -> usize {
        let (mut longest, mut run, mut node) = (0, 0, usize::MAX);
        for g in self.members() {
            let n = cluster.node_of(g);
            run = if n == node { run + 1 } else { 1 };
            node = n;
            longest = longest.max(run);
        }
        longest
    }

    /// Effective per-member ring bandwidth (bytes/s) and per-hop latency
    /// for this group, deciding once whether it crosses nodes.
    pub fn ring_link(&self, cluster: &ClusterSpec) -> (f64, f64) {
        if self.crosses_nodes(cluster) {
            (
                cluster.ib_bw / self.max_members_per_node(cluster) as f64,
                cluster.lat_inter,
            )
        } else {
            (cluster.nvlink_bw, cluster.lat_intra)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = DeviceRange::new(4, 8);
        assert_eq!(r.end(), 12);
        let c = ClusterSpec::v100(4, 8);
        assert!(r.crosses_nodes(&c));
        assert!(!DeviceRange::new(0, 8).crosses_nodes(&c));
        assert!(!DeviceRange::new(8, 0).crosses_nodes(&c));
    }

    #[test]
    fn contiguous_group_members() {
        let g = CommGroup::contiguous(2, 3);
        assert_eq!(g.members().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn strided_group_members() {
        let g = CommGroup::strided(1, 3, 4);
        assert_eq!(g.members().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn tp_group_stays_intra_node() {
        let c = ClusterSpec::v100(4, 8);
        // tp=8 within node 1.
        let tp = CommGroup::contiguous(8, 8);
        assert!(!tp.crosses_nodes(&c));
        assert_eq!(tp.ring_link(&c).0, c.nvlink_bw);
    }

    #[test]
    fn dp_group_across_nodes_shares_nic() {
        let c = ClusterSpec::v100(4, 8);
        // dp=4 strided by tp=8: GPUs 0, 8, 16, 24 — one per node.
        let dp = CommGroup::strided(0, 4, 8);
        assert!(dp.crosses_nodes(&c));
        assert_eq!(dp.max_members_per_node(&c), 1);
        assert_eq!(dp.ring_link(&c).0, c.ib_bw);
    }

    #[test]
    fn packed_cross_node_group_divides_nic() {
        let c = ClusterSpec::v100(2, 8);
        // 16 contiguous GPUs: 8 per node all in one ring.
        let g = CommGroup::contiguous(0, 16);
        assert_eq!(g.max_members_per_node(&c), 8);
        assert!((g.ring_link(&c).0 - c.ib_bw / 8.0).abs() < 1.0);
    }

    #[test]
    fn hop_latency_reflects_span() {
        let c = ClusterSpec::v100(2, 8);
        let intra = CommGroup::contiguous(0, 4);
        let inter = CommGroup::contiguous(6, 4);
        assert_eq!(intra.ring_link(&c).1, c.lat_intra);
        assert_eq!(inter.ring_link(&c).1, c.lat_inter);
    }

    #[test]
    fn uneven_cross_node_group_counts_its_longest_run() {
        let c = ClusterSpec::v100(3, 4);
        // GPUs 2..=8: two on node 0, four on node 1, one on node 2.
        let g = CommGroup::contiguous(2, 7);
        assert!(g.crosses_nodes(&c));
        assert_eq!(g.max_members_per_node(&c), 4);
        // Strided: 1, 4, 7, 10 sit on nodes 0, 1, 1, 2.
        let s = CommGroup::strided(1, 4, 3);
        assert!(s.crosses_nodes(&c));
        assert_eq!(s.max_members_per_node(&c), 2);
        assert!(!CommGroup::strided(4, 2, 2).crosses_nodes(&c));
    }

    #[test]
    fn singleton_group_never_crosses() {
        let c = ClusterSpec::v100(4, 8);
        let g = CommGroup::contiguous(9, 1);
        assert!(!g.crosses_nodes(&c));
    }
}
