//! Human-readable rendering of configurations.
//!
//! The case studies and examples all need to show *what* the search found
//! (uneven stages, partial recomputation, in-stage tp/dp mixes); this
//! module renders that in one consistent format.

use crate::parallel::ParallelConfig;
use aceso_model::ModelGraph;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a configuration as a multi-line summary.
///
/// One line per stage: op range (with the first/last op names when a model
/// is supplied), device count, the distinct `(tp, dp)` mixes, and the
/// recompute ratio.
///
/// # Examples
///
/// ```
/// use aceso_config::{describe, OpParallel, ParallelConfig, StageConfig};
///
/// let cfg = ParallelConfig::new(
///     vec![StageConfig::uniform(0, 4, OpParallel::data_parallel(2))],
///     4,
/// );
/// let text = describe(&cfg, None);
/// assert!(text.contains("1 stage(s), microbatch 4, 2 GPUs"));
/// ```
pub fn describe(config: &ParallelConfig, model: Option<&ModelGraph>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} stage(s), microbatch {}, {} GPUs",
        config.num_stages(),
        config.microbatch,
        config.total_gpus()
    );
    for (i, s) in config.stages().iter().enumerate() {
        let mut mixes: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for o in &s.ops {
            *mixes.entry((o.tp, o.dp)).or_insert(0) += 1;
        }
        let mix_str = mixes
            .iter()
            .map(|((tp, dp), n)| format!("{n}@tp{tp}/dp{dp}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let names = model
            .map(|m| {
                format!(
                    " [{}..{}]",
                    m.ops[s.op_start].name,
                    m.ops[s.op_end - 1].name
                )
            })
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  stage {i}: ops {:>4}..{:<4}{names} on {} GPU(s): {mix_str}, rc {}/{}",
            s.op_start,
            s.op_end,
            s.gpus,
            s.num_recomputed(),
            s.num_ops()
        );
    }
    out
}

/// Structural properties worth asserting about a found configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigShape {
    /// Stages hold different op counts.
    pub uneven_stages: bool,
    /// Some stage recomputes a strict, non-empty subset of its ops.
    pub partial_recompute: bool,
    /// Some stage mixes more than one `(tp, dp)` setting.
    pub mixed_parallelism: bool,
}

/// Computes the §5.4 case-study shape flags of a configuration.
pub fn shape(config: &ParallelConfig) -> ConfigShape {
    let sizes: Vec<usize> = config.stages().iter().map(|s| s.num_ops()).collect();
    let uneven_stages = sizes.windows(2).any(|w| w[0] != w[1]);
    let partial_recompute = config.stages().iter().any(|s| {
        let rc = s.num_recomputed();
        rc > 0 && rc < s.num_ops()
    });
    let mixed_parallelism = config.stages().iter().any(|s| {
        s.ops
            .windows(2)
            .any(|w| (w[0].tp, w[0].dp) != (w[1].tp, w[1].dp))
    });
    ConfigShape {
        uneven_stages,
        partial_recompute,
        mixed_parallelism,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{OpParallel, StageConfig};

    fn cfg() -> ParallelConfig {
        ParallelConfig::new(
            vec![
                StageConfig::uniform(0, 3, OpParallel::data_parallel(2)),
                StageConfig::uniform(3, 8, OpParallel::data_parallel(2)),
            ],
            4,
        )
    }

    #[test]
    fn describe_renders_stages() {
        let s = describe(&cfg(), None);
        assert!(s.contains("2 stage(s)"));
        assert!(s.contains("stage 0"));
        assert!(s.contains("3@tp1/dp2"));
    }

    #[test]
    fn shape_flags() {
        let base = shape(&cfg());
        assert!(base.uneven_stages);
        assert!(!base.partial_recompute);
        assert!(!base.mixed_parallelism);

        let mut c = cfg();
        c.stage_mut(0).ops[1].recompute = true;
        {
            let mut s = c.stage_mut(1);
            s.ops[0].tp = 2;
            s.ops[0].dp = 1;
        }
        let s = shape(&c);
        assert!(s.partial_recompute);
        assert!(s.mixed_parallelism);
    }

    #[test]
    fn even_config_not_flagged() {
        let c = ParallelConfig::new(
            vec![
                StageConfig::uniform(0, 4, OpParallel::data_parallel(2)),
                StageConfig::uniform(4, 8, OpParallel::data_parallel(2)),
            ],
            4,
        );
        assert!(!shape(&c).uneven_stages);
    }
}
