//! Configuration validation against a model and a cluster.

use crate::parallel::ParallelConfig;
use aceso_cluster::ClusterSpec;
use aceso_model::ModelGraph;

/// Reasons a configuration is structurally invalid.
///
/// Note: running out of *memory* is not a structural error — the search
/// deliberately traverses OOM configurations (Heuristic-1 exists to fix
/// them); the performance model reports memory feasibility separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No stages.
    NoStages,
    /// Stage op ranges do not exactly partition `[0, model.len())`.
    BadOpPartition {
        /// Index of the offending stage.
        stage: usize,
    },
    /// A stage has an empty op range.
    EmptyStage {
        /// Index of the offending stage.
        stage: usize,
    },
    /// Per-op settings length mismatch.
    OpsLenMismatch {
        /// Index of the offending stage.
        stage: usize,
    },
    /// `tp · dp` of an op differs from the stage's GPU count.
    GpuMismatch {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
    /// tp or dp is not a power of two (paper §5.1 restriction).
    NotPowerOfTwo {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
    /// tp exceeds the operator's divisibility limit.
    TpOverLimit {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
    /// An op references a partition dim the operator does not define.
    BadDimIndex {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
    /// Stage GPU counts do not sum to the cluster size.
    ClusterSizeMismatch {
        /// GPUs the configuration's stages sum to.
        got: usize,
        /// GPUs the cluster actually has.
        want: usize,
    },
    /// Microbatch size is zero, exceeds the batch, or does not divide it.
    BadMicrobatch {
        /// The rejected microbatch size.
        microbatch: usize,
    },
    /// An op's data-parallel degree does not divide the microbatch.
    DpNotDividingMicrobatch {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
    /// ZeRO-1 optimiser sharding enabled on an op whose data-parallel
    /// group is a singleton (`dp == 1`) — there is nothing to shard over,
    /// and the extra parameter all-gather would be pure overhead.
    ZeroWithoutDp {
        /// Index of the offending stage.
        stage: usize,
        /// Op index within the stage.
        op: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoStages => write!(f, "configuration has no stages"),
            ConfigError::BadOpPartition { stage } => {
                write!(f, "stage {stage} op range breaks the partition")
            }
            ConfigError::EmptyStage { stage } => write!(f, "stage {stage} has no operators"),
            ConfigError::OpsLenMismatch { stage } => {
                write!(f, "stage {stage} ops vector length mismatch")
            }
            ConfigError::GpuMismatch { stage, op } => {
                write!(f, "stage {stage} op {op}: tp*dp != stage gpus")
            }
            ConfigError::NotPowerOfTwo { stage, op } => {
                write!(f, "stage {stage} op {op}: tp/dp not powers of two")
            }
            ConfigError::TpOverLimit { stage, op } => {
                write!(f, "stage {stage} op {op}: tp over operator limit")
            }
            ConfigError::BadDimIndex { stage, op } => {
                write!(f, "stage {stage} op {op}: bad partition dim index")
            }
            ConfigError::ClusterSizeMismatch { got, want } => {
                write!(f, "stages use {got} GPUs, cluster has {want}")
            }
            ConfigError::BadMicrobatch { microbatch } => {
                write!(f, "bad microbatch size {microbatch}")
            }
            ConfigError::DpNotDividingMicrobatch { stage, op } => {
                write!(f, "stage {stage} op {op}: dp does not divide microbatch")
            }
            ConfigError::ZeroWithoutDp { stage, op } => {
                write!(f, "stage {stage} op {op}: zero sharding with dp == 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates `config` against `model` and `cluster`.
pub fn validate(
    config: &ParallelConfig,
    model: &ModelGraph,
    cluster: &ClusterSpec,
) -> Result<(), ConfigError> {
    if config.stages().is_empty() {
        return Err(ConfigError::NoStages);
    }
    // Op ranges must partition [0, model.len()).
    let mut expect = 0usize;
    for (i, s) in config.stages().iter().enumerate() {
        if s.op_start != expect {
            return Err(ConfigError::BadOpPartition { stage: i });
        }
        if s.op_end <= s.op_start {
            return Err(ConfigError::EmptyStage { stage: i });
        }
        expect = s.op_end;
    }
    if expect != model.len() {
        return Err(ConfigError::BadOpPartition {
            stage: config.stages().len() - 1,
        });
    }

    let total: usize = config.total_gpus();
    if total != cluster.total_gpus() {
        return Err(ConfigError::ClusterSizeMismatch {
            got: total,
            want: cluster.total_gpus(),
        });
    }

    let m = config.microbatch;
    if m == 0 || m > model.global_batch || !model.global_batch.is_multiple_of(m) {
        return Err(ConfigError::BadMicrobatch { microbatch: m });
    }

    for (i, s) in config.stages().iter().enumerate() {
        if s.ops.len() != s.num_ops() {
            return Err(ConfigError::OpsLenMismatch { stage: i });
        }
        for (j, op) in s.ops.iter().enumerate() {
            let global_op = s.op_start + j;
            if op.gpus() as usize != s.gpus {
                return Err(ConfigError::GpuMismatch {
                    stage: i,
                    op: global_op,
                });
            }
            if !op.tp.is_power_of_two() || !op.dp.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    stage: i,
                    op: global_op,
                });
            }
            let model_op = &model.ops[global_op];
            if op.tp > model_op.tp_limit {
                return Err(ConfigError::TpOverLimit {
                    stage: i,
                    op: global_op,
                });
            }
            if usize::from(op.dim_index) >= model_op.partitions.len() {
                return Err(ConfigError::BadDimIndex {
                    stage: i,
                    op: global_op,
                });
            }
            if !m.is_multiple_of(op.dp as usize) {
                return Err(ConfigError::DpNotDividingMicrobatch {
                    stage: i,
                    op: global_op,
                });
            }
            if op.zero && op.dp == 1 {
                return Err(ConfigError::ZeroWithoutDp {
                    stage: i,
                    op: global_op,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{OpParallel, StageConfig};
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec, ParallelConfig) {
        let model = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let cluster = ClusterSpec::v100(1, 8);
        let n = model.len();
        let config = ParallelConfig::new(
            vec![
                StageConfig::uniform(0, n / 2, OpParallel::data_parallel(4)),
                StageConfig::uniform(n / 2, n, OpParallel::data_parallel(4)),
            ],
            8,
        );
        (model, cluster, config)
    }

    #[test]
    fn valid_config_passes() {
        let (m, c, cfg) = setup();
        assert_eq!(validate(&cfg, &m, &c), Ok(()));
    }

    #[test]
    fn detects_partition_gap() {
        let (m, c, mut cfg) = setup();
        {
            let mut s = cfg.stage_mut(1);
            s.op_start += 1;
            s.ops.pop();
        }
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::BadOpPartition { .. })
        ));
    }

    #[test]
    fn detects_cluster_mismatch() {
        let (m, c, mut cfg) = setup();
        let (s, e) = (cfg.stages()[1].op_start, cfg.stages()[1].op_end);
        *cfg.stage_mut(1) = StageConfig::uniform(s, e, OpParallel::data_parallel(2));
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::ClusterSizeMismatch { got: 6, want: 8 })
        ));
    }

    #[test]
    fn detects_bad_microbatch() {
        let (m, c, mut cfg) = setup();
        cfg.microbatch = 0;
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::BadMicrobatch { .. })
        ));
        cfg.microbatch = 65; // does not divide 64
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::BadMicrobatch { .. })
        ));
    }

    #[test]
    fn detects_dp_not_dividing() {
        let (m, c, mut cfg) = setup();
        cfg.microbatch = 2; // dp=4 does not divide 2
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::DpNotDividingMicrobatch { .. })
        ));
    }

    #[test]
    fn detects_tp_over_limit() {
        let (m, c, mut cfg) = setup();
        // Give an op with tp_limit 4 (attention) a tp of 8.
        let mut hit = false;
        for (j, op) in cfg.stage_mut(0).ops.iter_mut().enumerate() {
            if m.ops[j].tp_limit == 4 && !hit {
                op.tp = 8;
                op.dp = 1;
                hit = true;
            }
        }
        assert!(hit, "model should contain a tp-limited op in stage 0");
        cfg.stage_mut(0).gpus = 8;
        let r = validate(&cfg, &m, &c);
        assert!(r.is_err());
    }

    #[test]
    fn detects_gpu_mismatch() {
        let (m, c, mut cfg) = setup();
        cfg.stage_mut(0).ops[0].dp = 2;
        assert!(matches!(
            validate(&cfg, &m, &c),
            Err(ConfigError::GpuMismatch { .. })
        ));
    }

    #[test]
    fn detects_zero_on_singleton_dp_group() {
        let (m, c, mut cfg) = setup();
        // tp 4 × dp 1 fills the 4-GPU stage; zero over dp=1 is meaningless.
        for op in &mut cfg.stage_mut(0).ops {
            op.tp = 4;
            op.dp = 1;
            op.zero = true;
        }
        // Clamp tp to each operator's limit so ZeroWithoutDp is the first
        // error hit (some ops cap tp below 4 — drop them from the probe).
        let ok_tp = cfg.stages()[0]
            .ops
            .iter()
            .enumerate()
            .all(|(j, o)| o.tp <= m.ops[cfg.stages()[0].op_start + j].tp_limit);
        if ok_tp {
            assert!(matches!(
                validate(&cfg, &m, &c),
                Err(ConfigError::ZeroWithoutDp { .. })
            ));
        } else {
            assert!(validate(&cfg, &m, &c).is_err());
        }
    }

    #[test]
    fn zero_with_real_dp_group_passes() {
        let (m, c, mut cfg) = setup();
        for op in &mut cfg.stage_mut(0).ops {
            op.zero = true; // dp = 4 here, so sharding is meaningful
        }
        assert_eq!(validate(&cfg, &m, &c), Ok(()));
    }

    #[test]
    fn error_display() {
        let e = ConfigError::ClusterSizeMismatch { got: 4, want: 8 };
        assert!(e.to_string().contains("4"));
        let z = ConfigError::ZeroWithoutDp { stage: 1, op: 3 };
        assert!(z.to_string().contains("dp == 1"));
    }
}
