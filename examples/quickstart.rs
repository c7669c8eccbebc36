//! Quickstart: search a parallel configuration for a small GPT model on a
//! simulated 4-GPU node, then execute it on the runtime simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use aceso::prelude::*;

fn main() {
    // 1. A model from the zoo (a scaled-down GPT so the example runs in
    //    seconds) and the cluster to train it on.
    let model = aceso::model::zoo::gpt3_custom(
        "quickstart-gpt", // name
        8,                // transformer layers
        1024,             // hidden size
        16,               // attention heads
        1024,             // sequence length
        32000,            // vocabulary
        128,              // global batch size
    );
    let cluster = ClusterSpec::v100(1, 4);
    println!(
        "model `{}`: {} operators, {:.2} B parameters",
        model.name,
        model.len(),
        model.total_params() as f64 / 1e9
    );

    // 2. Profile the operators once; the database is reusable.
    let db = ProfileDb::build(&model, &cluster);
    println!(
        "profiled {} kernel grid points (simulated profiling cost: {:.1} s)",
        db.len(),
        db.simulated_profiling_seconds()
    );

    // 3. Run the Aceso search (iterative bottleneck alleviation).
    let options = SearchOptions {
        max_iterations: 32,
        ..SearchOptions::default()
    };
    let result = AcesoSearch::new(&model, &cluster, &db, options)
        .run()
        .expect("search finds a configuration");
    println!(
        "searched {} configurations in {:.2?}; best predicted iteration {:.3} s",
        result.explored, result.wall_time, result.best_time
    );
    for (i, stage) in result.best_config.stages().iter().enumerate() {
        let para = stage.ops.first().expect("stages are non-empty");
        println!(
            "  stage {i}: ops {:>3}..{:<3} on {} GPU(s), tp={} dp={}, {}/{} ops recomputed",
            stage.op_start,
            stage.op_end,
            stage.gpus,
            para.tp,
            para.dp,
            stage.num_recomputed(),
            stage.num_ops()
        );
    }

    // 4. Execute the best configuration on the event-driven simulator.
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute(&result.best_config)
        .expect("config executes");
    println!(
        "executed: iteration {:.3} s, throughput {:.1} samples/s, \
         {:.1} TFLOPS/GPU, peak memory {:.1} GB (fits: {})",
        report.iteration_time,
        report.throughput,
        report.tflops_per_gpu,
        report.peak_memory as f64 / 1e9,
        report.ok()
    );

    // 5. Compare prediction and execution (the Exp#8 question).
    let pm = PerfModel::new(&model, &cluster, &db);
    let predicted = pm
        .evaluate(&result.best_config)
        .expect("valid config")
        .iteration_time;
    println!(
        "prediction error: {:.2}%",
        (predicted - report.iteration_time).abs() / report.iteration_time * 100.0
    );
}
