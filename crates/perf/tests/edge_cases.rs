//! Edge-case tests for the perf model's memoizable ingredients —
//! `stage_breakdown` and `boundary_p2p` — at the corners the incremental
//! evaluator's cache key must respect: single-stage pipelines (no
//! boundary term at all), pure dp=1 configurations (exactly zero
//! gradient sync), and tensor-parallel groups that span a node boundary.

use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, OpParallel, ParallelConfig, StageConfig};
use aceso_model::{zoo::gpt3_custom, ModelGraph};
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;

fn model() -> ModelGraph {
    gpt3_custom("edge", 4, 512, 8, 256, 8192, 64)
}

fn uniform(n: usize, para: OpParallel, microbatch: usize) -> ParallelConfig {
    ParallelConfig::new(vec![StageConfig::uniform(0, n, para)], microbatch)
}

/// A single-stage pipeline has no pipeline boundary: the assembled stage
/// communication must equal the raw breakdown bit-for-bit — any
/// difference means a phantom `boundary_p2p` term leaked in.
#[test]
fn single_stage_pipeline_has_no_boundary_term() {
    let m = model();
    let c = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&m, &c);
    let pm = PerfModel::new(&m, &c, &db);
    let cfg = balanced_init(&m, &c, 1).expect("init");

    let raw = pm.stage_breakdown(&cfg, 0);
    let est = pm.evaluate(&cfg).expect("valid");
    assert_eq!(est.stages.len(), 1);
    assert_eq!(est.slowest_stage, 0);
    assert_eq!(est.stages[0].in_flight, 1);
    assert_eq!(est.stages[0].comm_fwd.to_bits(), raw.comm_fwd.to_bits());
    assert_eq!(est.stages[0].comm_bwd.to_bits(), raw.comm_bwd.to_bits());

    // Contrast: with two stages a forward boundary is charged on stage 0.
    let cfg2 = balanced_init(&m, &c, 2).expect("init");
    let raw2 = pm.stage_breakdown(&cfg2, 0);
    let est2 = pm.evaluate(&cfg2).expect("valid");
    assert!(est2.stages[0].comm_fwd > raw2.comm_fwd);
}

/// With dp = 1 on every op there is no gradient to synchronise: `dp_sync`
/// must be exactly 0.0 (not merely small) on every stage, both in the
/// raw breakdown and in the assembled estimate.
#[test]
fn dp1_everywhere_has_exactly_zero_dp_sync() {
    let m = model();
    let c = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&m, &c);
    let pm = PerfModel::new(&m, &c, &db);

    // Four single-GPU stages: tp = dp = 1 everywhere by construction.
    let cfg = balanced_init(&m, &c, 4).expect("init");
    for s in cfg.stages() {
        for o in &s.ops {
            assert_eq!((o.tp, o.dp), (1, 1));
        }
    }
    let est = pm.evaluate(&cfg).expect("valid");
    for (i, s) in est.stages.iter().enumerate() {
        assert_eq!(
            pm.stage_breakdown(&cfg, i).dp_sync.to_bits(),
            0f64.to_bits()
        );
        assert_eq!(s.dp_sync.to_bits(), 0f64.to_bits());
    }

    // Contrast: a data-parallel stage pays a strictly positive sync.
    let dp4 = uniform(m.len(), OpParallel::data_parallel(4), 4);
    let dp_est = pm.evaluate(&dp4).expect("valid");
    assert!(dp_est.stages[0].dp_sync > 0.0);
}

/// The same tp=4 configuration is strictly more expensive when its
/// tensor-parallel group spans a node boundary (2 nodes × 2 GPUs) than
/// when it fits inside one node (1 × 4): all-reduces cross the slower
/// inter-node link.
#[test]
fn tp_spanning_node_boundary_costs_more() {
    let m = model();
    let tp4 = uniform(
        m.len(),
        OpParallel {
            tp: 4,
            dp: 1,
            dim_index: 0,
            recompute: false,
            zero: false,
        },
        4,
    );

    let intra = ClusterSpec::v100(1, 4);
    let inter = ClusterSpec::v100(2, 2);
    let db_intra = ProfileDb::build(&m, &intra);
    let db_inter = ProfileDb::build(&m, &inter);
    let pm_intra = PerfModel::new(&m, &intra, &db_intra);
    let pm_inter = PerfModel::new(&m, &inter, &db_inter);

    let a = pm_intra.stage_breakdown(&tp4, 0);
    let b = pm_inter.stage_breakdown(&tp4, 0);
    assert!(
        b.comm_fwd > a.comm_fwd,
        "cross-node tp comm {} must exceed intra-node {}",
        b.comm_fwd,
        a.comm_fwd
    );
    // Compute is topology-independent.
    assert_eq!(a.comp_fwd.to_bits(), b.comp_fwd.to_bits());
}

/// `boundary_p2p` across a node boundary is dearer than the same
/// transfer inside a node, and its payload shrinks with the producing
/// op's data-parallel degree (each replica ships its own slice).
#[test]
fn boundary_p2p_cost_tracks_topology_and_dp() {
    let m = model();
    let intra = ClusterSpec::v100(1, 4);
    let inter = ClusterSpec::v100(2, 2);
    let db_intra = ProfileDb::build(&m, &intra);
    let db_inter = ProfileDb::build(&m, &inter);
    let pm_intra = PerfModel::new(&m, &intra, &db_intra);
    let pm_inter = PerfModel::new(&m, &inter, &db_inter);

    let cfg = balanced_init(&m, &intra, 2).expect("init");
    // Device 1 -> 2 stays in-node on 1×4 but crosses nodes on 2×2.
    let in_node = pm_intra.boundary_p2p(&cfg, 0, 1, 2);
    let cross_node = pm_inter.boundary_p2p(&cfg, 0, 1, 2);
    assert!(in_node > 0.0);
    assert!(
        cross_node > in_node,
        "cross-node p2p {cross_node} must exceed in-node {in_node}"
    );

    // Doubling the last op's dp halves the per-replica payload.
    let mut dp1 = cfg.clone();
    for o in &mut dp1.stage_mut(0).ops {
        o.tp = 2;
        o.dp = 1;
    }
    let mut dp2 = cfg.clone();
    for o in &mut dp2.stage_mut(0).ops {
        o.tp = 1;
        o.dp = 2;
    }
    let full = pm_intra.boundary_p2p(&dp1, 0, 1, 2);
    let halved = pm_intra.boundary_p2p(&dp2, 0, 1, 2);
    assert!(
        halved < full,
        "dp=2 boundary {halved} must undercut dp=1 {full}"
    );
}
