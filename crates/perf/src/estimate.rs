//! Estimate types produced by the performance model.

/// Predicted resources and times for one pipeline stage (one representative
/// device — in-stage symmetry makes all devices of a stage equal, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct StageEstimate {
    /// Forward compute time per microbatch (seconds).
    pub comp_fwd: f64,
    /// Backward compute time per microbatch, including recomputation.
    pub comp_bwd: f64,
    /// Forward communication per microbatch (tp collectives, resharding,
    /// boundary p2p).
    pub comm_fwd: f64,
    /// Backward communication per microbatch.
    pub comm_bwd: f64,
    /// Gradient-synchronisation time per iteration (data parallelism).
    pub dp_sync: f64,
    /// Parameter + gradient bytes per device.
    pub mem_params: u64,
    /// Optimiser-state bytes per device.
    pub mem_opt: u64,
    /// Activation bytes stashed per microbatch per device.
    pub mem_act_per_mb: u64,
    /// Number of in-flight microbatches under 1F1B (`p − i`).
    pub in_flight: usize,
    /// Reserved-memory overestimate (max per-op working set), bytes.
    pub mem_reserved: u64,
    /// Total predicted peak memory per device (Eq. 1 + reserved), bytes.
    pub mem_total: u64,
    /// Per-stage iteration time (Eq. 2), seconds.
    pub stage_time: f64,
}

impl StageEstimate {
    /// Total compute time per microbatch.
    pub fn comp_per_mb(&self) -> f64 {
        self.comp_fwd + self.comp_bwd
    }

    /// Total communication time per microbatch.
    pub fn comm_per_mb(&self) -> f64 {
        self.comm_fwd + self.comm_bwd
    }

    /// Steady-state time per microbatch (compute + communication).
    pub fn steady_per_mb(&self) -> f64 {
        self.comp_per_mb() + self.comm_per_mb()
    }

    /// Whether every field equals `other`'s to the last bit (floats are
    /// compared by bit pattern, unlike the derived `PartialEq`).
    pub fn bit_identical(&self, other: &StageEstimate) -> bool {
        let times = |e: &StageEstimate| {
            [
                e.comp_fwd,
                e.comp_bwd,
                e.comm_fwd,
                e.comm_bwd,
                e.dp_sync,
                e.stage_time,
            ]
            .map(f64::to_bits)
        };
        let sizes = |e: &StageEstimate| {
            [
                e.mem_params,
                e.mem_opt,
                e.mem_act_per_mb,
                e.mem_reserved,
                e.mem_total,
            ]
        };
        times(self) == times(other)
            && sizes(self) == sizes(other)
            && self.in_flight == other.in_flight
    }
}

/// Whole-configuration prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEstimate {
    /// Per-stage breakdown.
    pub stages: Vec<StageEstimate>,
    /// Number of microbatches per iteration.
    pub num_microbatches: usize,
    /// Predicted iteration time: `max_i (stage_time_i + dp_sync_i)`.
    pub iteration_time: f64,
    /// Index of the slowest stage.
    pub slowest_stage: usize,
    /// Largest per-device memory across stages, bytes.
    pub max_memory: u64,
    /// Index of the most memory-hungry stage.
    pub max_memory_stage: usize,
    /// Device memory capacity the prediction was made against, bytes.
    pub mem_capacity: u64,
}

impl ConfigEstimate {
    /// Whether any stage exceeds device memory.
    pub fn oom(&self) -> bool {
        self.max_memory > self.mem_capacity
    }

    /// Training throughput in samples/second for `global_batch`.
    pub fn throughput(&self, global_batch: usize) -> f64 {
        if self.iteration_time <= 0.0 {
            return 0.0;
        }
        global_batch as f64 / self.iteration_time
    }

    /// A single scalar for comparing configurations: iteration time, with
    /// OOM configurations ranked strictly worse than any feasible one by
    /// adding the memory overshoot as a penalty multiplier.
    ///
    /// The search minimises this; the paper's Algorithm 2 compares
    /// "performance" where an infeasible configuration becoming feasible
    /// counts as an improvement — this scalar encodes exactly that order.
    pub fn score(&self) -> f64 {
        if self.oom() {
            let overshoot = self.max_memory as f64 / self.mem_capacity as f64;
            // Any OOM config scores ≥ 1e6× a feasible one; deeper overshoot
            // scores worse, so reducing memory pressure always improves.
            1e6 * self.iteration_time * overshoot
        } else {
            self.iteration_time
        }
    }

    /// Whether this estimate equals `other` to the last bit, stage by
    /// stage ([`StageEstimate::bit_identical`]).
    pub fn bit_identical(&self, other: &ConfigEstimate) -> bool {
        self.iteration_time.to_bits() == other.iteration_time.to_bits()
            && self.num_microbatches == other.num_microbatches
            && self.slowest_stage == other.slowest_stage
            && self.max_memory == other.max_memory
            && self.max_memory_stage == other.max_memory_stage
            && self.mem_capacity == other.mem_capacity
            && self.stages.len() == other.stages.len()
            && self
                .stages
                .iter()
                .zip(&other.stages)
                .all(|(a, b)| a.bit_identical(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(comp: f64, comm: f64, mem: u64) -> StageEstimate {
        StageEstimate {
            comp_fwd: comp / 3.0,
            comp_bwd: 2.0 * comp / 3.0,
            comm_fwd: comm / 2.0,
            comm_bwd: comm / 2.0,
            dp_sync: 0.0,
            mem_params: 0,
            mem_opt: 0,
            mem_act_per_mb: 0,
            in_flight: 1,
            mem_reserved: 0,
            mem_total: mem,
            stage_time: comp + comm,
        }
    }

    fn estimate(mem: u64, cap: u64) -> ConfigEstimate {
        ConfigEstimate {
            stages: vec![stage(1.0, 0.5, mem)],
            num_microbatches: 4,
            iteration_time: 1.5,
            slowest_stage: 0,
            max_memory: mem,
            max_memory_stage: 0,
            mem_capacity: cap,
        }
    }

    #[test]
    fn per_mb_sums() {
        let s = stage(3.0, 1.0, 0);
        assert!((s.comp_per_mb() - 3.0).abs() < 1e-12);
        assert!((s.comm_per_mb() - 1.0).abs() < 1e-12);
        assert!((s.steady_per_mb() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn oom_flag() {
        assert!(!estimate(10, 20).oom());
        assert!(estimate(30, 20).oom());
    }

    #[test]
    fn score_orders_oom_below_feasible() {
        let ok = estimate(10, 20);
        let bad = estimate(30, 20);
        assert!(bad.score() > ok.score() * 1000.0);
        // Deeper overshoot is worse.
        let worse = estimate(40, 20);
        assert!(worse.score() > bad.score());
    }

    #[test]
    fn feasible_score_is_iteration_time() {
        let e = estimate(10, 20);
        assert_eq!(e.score(), e.iteration_time);
    }

    #[test]
    fn throughput_basic() {
        let e = estimate(10, 20);
        assert!((e.throughput(1024) - 1024.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn bit_identity_sees_signed_zero_and_memory() {
        let a = estimate(10, 20);
        assert!(a.bit_identical(&a.clone()));
        // `PartialEq` calls 0.0 and -0.0 equal; bit identity does not.
        let mut b = a.clone();
        b.stages[0].dp_sync = -0.0;
        assert_eq!(a, b);
        assert!(!a.bit_identical(&b));
        let mut c = a.clone();
        c.stages[0].mem_reserved = 1;
        assert!(!a.bit_identical(&c));
    }
}
