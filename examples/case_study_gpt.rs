//! §5.4 case study 1 — GPT-3 1.3B on 4 GPUs.
//!
//! The paper: Alpa and Megatron-LM pick 4-way data parallelism with
//! recomputation enabled everywhere; Aceso instead finds a pipeline with
//! *uneven* stages (fewer operators in the first and last stages, because
//! the first pays recompute and the last pays the loss computation) and
//! recomputes only a few operators — a configuration outside both
//! baselines' search spaces.
//!
//! Run with: `cargo run --release --example case_study_gpt`

use aceso::baselines::{AlpaOptions, AlpaSearch, MegatronOptions, MegatronSearch};
use aceso::model::zoo::{gpt3, Gpt3Size};
use aceso::prelude::*;

fn show(label: &str, config: &aceso::config::ParallelConfig, time: f64) {
    println!("\n{label}: predicted iteration {time:.2} s");
    print!("{}", aceso::config::describe(config, None));
}

fn main() {
    let model = gpt3(Gpt3Size::S1_3b);
    let cluster = ClusterSpec::v100(1, 4);
    println!(
        "GPT-3 1.3B ({} ops, {:.2} B params) on 4 × V100-32GB",
        model.len(),
        model.total_params() as f64 / 1e9
    );
    let db = ProfileDb::build(&model, &cluster);

    let aceso = AcesoSearch::new(
        &model,
        &cluster,
        &db,
        SearchOptions {
            max_iterations: 48,
            time_budget: Some(std::time::Duration::from_secs(15)),
            ..SearchOptions::default()
        },
    )
    .run()
    .expect("aceso finds a configuration");
    show("Aceso", &aceso.best_config, aceso.best_time);

    let uneven = {
        let sizes: Vec<usize> = aceso
            .best_config
            .stages()
            .iter()
            .map(|s| s.num_ops())
            .collect();
        sizes.windows(2).any(|w| w[0] != w[1])
    };
    let partial_rc = aceso.best_config.stages().iter().any(|s| {
        let rc = s.num_recomputed();
        rc > 0 && rc < s.num_ops()
    });
    println!("  -> uneven stages: {uneven}; partial (op-level) recomputation: {partial_rc}");

    if let Some(meg) = MegatronSearch::new(&model, &cluster, &db, MegatronOptions::default()).run()
    {
        show("Megatron-LM (global grid)", &meg.config, meg.iteration_time);
    }
    if let Ok(alpa) = AlpaSearch::new(&model, &cluster, &db, AlpaOptions::default()).run() {
        show("Alpa (two-level DP)", &alpa.config, alpa.iteration_time);
    }

    println!(
        "\nThe baselines are locked to uniform stages and all-or-nothing\n\
         recomputation; Aceso's primitive search reaches the uneven,\n\
         partially-recomputed configuration the paper's case study shows."
    );
}
