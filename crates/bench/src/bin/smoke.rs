//! Quick comparative smoke run (not a paper experiment): one mid-size
//! GPT-3 setting under all three systems, printing the numbers that matter
//! for the headline claims.

use aceso_bench::harness::{aceso_opts_for, ExpEnv};
use aceso_model::zoo::{gpt3, t5, wide_resnet, Gpt3Size, T5Size, WideResnetSize};
use aceso_perf::PerfModel;
use std::time::Instant;

fn main() {
    let size = std::env::args().nth(1).unwrap_or_else(|| "1.3b".into());
    let (model, gpus) = match size.as_str() {
        "0.35b" => (gpt3(Gpt3Size::S0_35b), 1),
        "1.3b" => (gpt3(Gpt3Size::S1_3b), 4),
        "2.6b" => (gpt3(Gpt3Size::S2_6b), 8),
        "6.7b" => (gpt3(Gpt3Size::S6_7b), 16),
        "13b" => (gpt3(Gpt3Size::S13b), 32),
        "wrn-2b" => (wide_resnet(WideResnetSize::S2b), 4),
        "wrn-6.8b" => (wide_resnet(WideResnetSize::S6_8b), 16),
        "wrn-13b" => (wide_resnet(WideResnetSize::S13b), 32),
        "t5-3b" => (t5(T5Size::S3b), 4),
        "t5-11b" => (t5(T5Size::S11b), 16),
        "t5-22b" => (t5(T5Size::S22b), 32),
        other => panic!("unknown size {other}"),
    };
    eprintln!("model {} on {} GPUs, {} ops", model.name, gpus, model.len());
    let t0 = Instant::now();
    let env = ExpEnv::new(model, gpus);
    eprintln!(
        "profile db built in {:?} ({} entries)",
        t0.elapsed(),
        env.db.len()
    );
    let pm = PerfModel::new(&env.model, &env.cluster, &env.db);

    let t0 = Instant::now();
    let aceso = env
        .run_aceso(aceso_opts_for(false, env.model.len()))
        .expect("aceso");
    eprintln!(
        "aceso search: {:?}, explored {}",
        t0.elapsed(),
        aceso.explored
    );
    let a_run = env.execute(&aceso.best_config);
    println!(
        "aceso    predicted {:.3}s actual {:.3}s tput {:.1} tflops {:.1} stages {} mbs {} mem {:.1}/{:.1} GB",
        aceso.best_time,
        a_run.iteration_time,
        a_run.throughput,
        a_run.tflops_per_gpu,
        aceso.best_config.num_stages(),
        aceso.best_config.microbatch,
        a_run.peak_memory as f64 / 1e9,
        pm.evaluate_unchecked(&aceso.best_config).max_memory as f64 / 1e9,
    );
    for (i, s) in aceso.best_config.stages().iter().enumerate() {
        let ops0 = s.ops.first().expect("nonempty");
        println!(
            "  stage {i}: ops {}..{} gpus {} tp {} dp {} rc {}/{}",
            s.op_start,
            s.op_end,
            s.gpus,
            ops0.tp,
            ops0.dp,
            s.num_recomputed(),
            s.num_ops()
        );
    }

    let t0 = Instant::now();
    if let Some(meg) = env.run_megatron() {
        let m_run = env.execute(&meg.config);
        eprintln!(
            "megatron search: {:?}, explored {}",
            t0.elapsed(),
            meg.explored
        );
        println!(
            "megatron predicted {:.3}s actual {:.3}s tput {:.1} tflops {:.1} stages {} mbs {} oom {}",
            meg.iteration_time,
            m_run.iteration_time,
            m_run.throughput,
            m_run.tflops_per_gpu,
            meg.config.num_stages(),
            meg.config.microbatch,
            meg.oom,
        );
    }

    let t0 = Instant::now();
    match env.run_alpa() {
        Ok(alpa) => {
            let al_run = env.execute(&alpa.config);
            eprintln!(
                "alpa search: {:?} (modeled {:.1}s), explored {}",
                t0.elapsed(),
                alpa.modeled_seconds,
                alpa.explored
            );
            println!(
                "alpa     predicted {:.3}s actual {:.3}s tput {:.1} tflops {:.1} stages {} mbs {} oom {}",
                alpa.iteration_time,
                al_run.iteration_time,
                al_run.throughput,
                al_run.tflops_per_gpu,
                alpa.config.num_stages(),
                alpa.config.microbatch,
                alpa.oom,
            );
        }
        Err(e) => println!("alpa failed: {e}"),
    }
}
