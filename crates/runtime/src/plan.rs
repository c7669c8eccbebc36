//! Executable per-rank plan export.
//!
//! A real deployment (the paper runs a modified Megatron-LM) consumes the
//! searched configuration as a concrete per-GPU execution plan: which
//! operator shards a rank runs, its tensor/data-parallel communication
//! groups, its 1F1B task schedule, and its pipeline peers. This module
//! materialises exactly that from a [`ParallelConfig`] — the hand-off
//! artifact between the search and a training runtime — and serialises it
//! to JSON.

use crate::schedule::{one_f_one_b, Task};
use aceso_cluster::ClusterSpec;
use aceso_config::{ConfigError, ParallelConfig};
use aceso_model::ModelGraph;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};

/// One operator shard assigned to a rank.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAssignment {
    /// Global operator index in the model.
    pub op_index: usize,
    /// Operator name.
    pub name: String,
    /// Tensor-parallel degree and this rank's shard index within it.
    pub tp: u32,
    /// Shard index within the tp group.
    pub tp_rank: u32,
    /// Data-parallel degree and this rank's replica index within it.
    pub dp: u32,
    /// Replica index within the dp group.
    pub dp_rank: u32,
    /// Partition dimension index.
    pub dim_index: u8,
    /// Whether the activation is recomputed in backward.
    pub recompute: bool,
}

/// Everything one GPU needs to execute its part of the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlan {
    /// Global GPU id.
    pub rank: usize,
    /// Pipeline stage this rank belongs to.
    pub stage: usize,
    /// Members of this rank's widest tensor-parallel group.
    pub tp_group: Vec<usize>,
    /// Members of this rank's widest data-parallel group.
    pub dp_group: Vec<usize>,
    /// Rank on the previous stage this rank receives activations from.
    pub recv_from: Option<usize>,
    /// Rank on the next stage this rank sends activations to.
    pub send_to: Option<usize>,
    /// Operator shards this rank executes, in model order.
    pub ops: Vec<OpAssignment>,
    /// 1F1B task order for this rank.
    pub schedule: Vec<PlanTask>,
}

/// Serialisable schedule entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTask {
    /// Forward pass of one microbatch.
    Fwd(usize),
    /// Backward pass of one microbatch.
    Bwd(usize),
}

impl From<Task> for PlanTask {
    fn from(t: Task) -> Self {
        match t {
            Task::Fwd(mb) => PlanTask::Fwd(mb),
            Task::Bwd(mb) => PlanTask::Bwd(mb),
        }
    }
}

/// A complete multi-rank execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Model name the plan was built for.
    pub model: String,
    /// Global (aggregated) microbatch size.
    pub microbatch: usize,
    /// Microbatches per iteration.
    pub num_microbatches: usize,
    /// One plan per GPU, ordered by rank.
    pub ranks: Vec<RankPlan>,
}

impl ExecutionPlan {
    /// Builds the plan for a validated configuration.
    pub fn build(
        model: &ModelGraph,
        cluster: &ClusterSpec,
        config: &ParallelConfig,
    ) -> Result<Self, ConfigError> {
        aceso_config::validate::validate(config, model, cluster)?;
        let p = config.num_stages();
        let n_mb = config.num_microbatches(model.global_batch);
        let mut ranks = Vec::with_capacity(cluster.total_gpus());
        for (stage_idx, stage) in config.stages().iter().enumerate() {
            let range = config.device_range(stage_idx);
            // The widest tp in the stage defines the communicator layout;
            // narrower per-op groups are sub-groups of it.
            let max_tp = stage.ops.iter().map(|o| o.tp).max().unwrap_or(1) as usize;
            let schedule: Vec<PlanTask> = one_f_one_b(stage_idx, p, n_mb.max(1))
                .into_iter()
                .map(PlanTask::from)
                .collect();
            for local in 0..stage.gpus {
                let rank = range.start + local;
                let tp_base = range.start + (local / max_tp) * max_tp;
                let tp_group: Vec<usize> = (tp_base..tp_base + max_tp).collect();
                let dp_group: Vec<usize> = (0..stage.gpus / max_tp)
                    .map(|k| range.start + local % max_tp + k * max_tp)
                    .collect();
                let ops = stage
                    .ops
                    .iter()
                    .enumerate()
                    .map(|(j, para)| {
                        let g = stage.op_start + j;
                        let within = (local % max_tp) as u32;
                        OpAssignment {
                            op_index: g,
                            name: model.ops[g].name.clone(),
                            tp: para.tp,
                            tp_rank: within % para.tp,
                            dp: para.dp,
                            dp_rank: (local as u32) / para.tp % para.dp,
                            dim_index: para.dim_index,
                            recompute: para.recompute,
                        }
                    })
                    .collect();
                let recv_from = (stage_idx > 0).then(|| {
                    let prev = config.device_range(stage_idx - 1);
                    prev.start + local % prev.len
                });
                let send_to = (stage_idx + 1 < p).then(|| {
                    let next = config.device_range(stage_idx + 1);
                    next.start + local % next.len
                });
                ranks.push(RankPlan {
                    rank,
                    stage: stage_idx,
                    tp_group,
                    dp_group,
                    recv_from,
                    send_to,
                    ops,
                    schedule: schedule.clone(),
                });
            }
        }
        Ok(Self {
            model: model.name.clone(),
            microbatch: config.microbatch,
            num_microbatches: n_mb,
            ranks,
        })
    }

    /// Serialises the plan to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Restores a plan from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Value::parse(json)?)
    }
}

impl ToJson for OpAssignment {
    fn to_json_value(&self) -> Value {
        obj([
            ("op_index", Value::UInt(self.op_index as u64)),
            ("name", Value::Str(self.name.clone())),
            ("tp", Value::UInt(u64::from(self.tp))),
            ("tp_rank", Value::UInt(u64::from(self.tp_rank))),
            ("dp", Value::UInt(u64::from(self.dp))),
            ("dp_rank", Value::UInt(u64::from(self.dp_rank))),
            ("dim_index", Value::UInt(u64::from(self.dim_index))),
            ("recompute", Value::Bool(self.recompute)),
        ])
    }
}

impl FromJson for OpAssignment {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            op_index: v.field("op_index")?.as_usize()?,
            name: v.field("name")?.as_str()?.to_string(),
            tp: v.field("tp")?.as_u32()?,
            tp_rank: v.field("tp_rank")?.as_u32()?,
            dp: v.field("dp")?.as_u32()?,
            dp_rank: v.field("dp_rank")?.as_u32()?,
            dim_index: v.field("dim_index")?.as_u8()?,
            recompute: v.field("recompute")?.as_bool()?,
        })
    }
}

impl ToJson for PlanTask {
    fn to_json_value(&self) -> Value {
        match self {
            PlanTask::Fwd(mb) => obj([("fwd", Value::UInt(*mb as u64))]),
            PlanTask::Bwd(mb) => obj([("bwd", Value::UInt(*mb as u64))]),
        }
    }
}

impl FromJson for PlanTask {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        if let Some(mb) = v.get("fwd") {
            Ok(PlanTask::Fwd(mb.as_usize()?))
        } else if let Some(mb) = v.get("bwd") {
            Ok(PlanTask::Bwd(mb.as_usize()?))
        } else {
            Err(JsonError::shape("expected fwd or bwd task"))
        }
    }
}

impl ToJson for RankPlan {
    fn to_json_value(&self) -> Value {
        let usizes =
            |xs: &[usize]| Value::Array(xs.iter().map(|&x| Value::UInt(x as u64)).collect());
        obj([
            ("rank", Value::UInt(self.rank as u64)),
            ("stage", Value::UInt(self.stage as u64)),
            ("tp_group", usizes(&self.tp_group)),
            ("dp_group", usizes(&self.dp_group)),
            (
                "recv_from",
                self.recv_from
                    .map_or(Value::Null, |r| Value::UInt(r as u64)),
            ),
            (
                "send_to",
                self.send_to.map_or(Value::Null, |r| Value::UInt(r as u64)),
            ),
            ("ops", self.ops.to_json_value()),
            ("schedule", self.schedule.to_json_value()),
        ])
    }
}

impl FromJson for RankPlan {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let usizes = |v: &Value| -> Result<Vec<usize>, JsonError> {
            v.as_array()?.iter().map(Value::as_usize).collect()
        };
        let opt_usize = |v: &Value| -> Result<Option<usize>, JsonError> {
            match v {
                Value::Null => Ok(None),
                other => Ok(Some(other.as_usize()?)),
            }
        };
        let mut ops = Vec::new();
        for o in v.field("ops")?.as_array()? {
            ops.push(OpAssignment::from_json_value(o)?);
        }
        let mut schedule = Vec::new();
        for t in v.field("schedule")?.as_array()? {
            schedule.push(PlanTask::from_json_value(t)?);
        }
        Ok(Self {
            rank: v.field("rank")?.as_usize()?,
            stage: v.field("stage")?.as_usize()?,
            tp_group: usizes(v.field("tp_group")?)?,
            dp_group: usizes(v.field("dp_group")?)?,
            recv_from: opt_usize(v.field("recv_from")?)?,
            send_to: opt_usize(v.field("send_to")?)?,
            ops,
            schedule,
        })
    }
}

impl ToJson for ExecutionPlan {
    fn to_json_value(&self) -> Value {
        obj([
            ("model", Value::Str(self.model.clone())),
            ("microbatch", Value::UInt(self.microbatch as u64)),
            (
                "num_microbatches",
                Value::UInt(self.num_microbatches as u64),
            ),
            ("ranks", self.ranks.to_json_value()),
        ])
    }
}

impl FromJson for ExecutionPlan {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut ranks = Vec::new();
        for r in v.field("ranks")?.as_array()? {
            ranks.push(RankPlan::from_json_value(r)?);
        }
        Ok(Self {
            model: v.field("model")?.as_str()?.to_string(),
            microbatch: v.field("microbatch")?.as_usize()?,
            num_microbatches: v.field("num_microbatches")?.as_usize()?,
            ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_config::balanced_init;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec, ParallelConfig) {
        let m = gpt3_custom("plan-t", 4, 512, 8, 256, 8192, 64);
        let c = ClusterSpec::v100(1, 8);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        (m, c, cfg)
    }

    #[test]
    fn covers_every_rank_once() {
        let (m, c, cfg) = setup();
        let plan = ExecutionPlan::build(&m, &c, &cfg).expect("builds");
        assert_eq!(plan.ranks.len(), 8);
        for (i, r) in plan.ranks.iter().enumerate() {
            assert_eq!(r.rank, i);
        }
    }

    #[test]
    fn tp_and_dp_groups_partition_each_stage() {
        let (m, c, mut cfg) = setup();
        // Force an interesting mesh: tp2 × dp2 per stage.
        for mut s in cfg.stages_mut() {
            for o in &mut s.ops {
                o.tp = 2;
                o.dp = 2;
            }
        }
        let plan = ExecutionPlan::build(&m, &c, &cfg).expect("builds");
        for r in &plan.ranks {
            assert!(r.tp_group.contains(&r.rank));
            assert!(r.dp_group.contains(&r.rank));
            assert_eq!(r.tp_group.len(), 2);
            assert_eq!(r.dp_group.len(), 2);
            // Groups are disjoint except at this rank.
            let overlap: Vec<_> = r
                .tp_group
                .iter()
                .filter(|g| r.dp_group.contains(g))
                .collect();
            assert_eq!(overlap, vec![&r.rank]);
        }
    }

    #[test]
    fn pipeline_peers_link_adjacent_stages() {
        let (m, c, cfg) = setup();
        let plan = ExecutionPlan::build(&m, &c, &cfg).expect("builds");
        for r in &plan.ranks {
            match r.stage {
                0 => {
                    assert!(r.recv_from.is_none());
                    let to = r.send_to.expect("stage 0 sends");
                    assert_eq!(plan.ranks[to].stage, 1);
                }
                1 => {
                    assert!(r.send_to.is_none());
                    let from = r.recv_from.expect("stage 1 receives");
                    assert_eq!(plan.ranks[from].stage, 0);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn schedules_follow_1f1b() {
        let (m, c, cfg) = setup();
        let plan = ExecutionPlan::build(&m, &c, &cfg).expect("builds");
        let n = plan.num_microbatches;
        for r in &plan.ranks {
            assert_eq!(r.schedule.len(), 2 * n);
            // Last stage alternates strictly.
            if r.stage == 1 {
                assert_eq!(r.schedule[0], PlanTask::Fwd(0));
                assert_eq!(r.schedule[1], PlanTask::Bwd(0));
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let (m, c, cfg) = setup();
        let plan = ExecutionPlan::build(&m, &c, &cfg).expect("builds");
        let back = ExecutionPlan::from_json(&plan.to_json()).expect("parses");
        assert_eq!(plan, back);
    }

    #[test]
    fn invalid_config_rejected() {
        let (m, c, mut cfg) = setup();
        cfg.microbatch = 0;
        assert!(ExecutionPlan::build(&m, &c, &cfg).is_err());
    }
}
