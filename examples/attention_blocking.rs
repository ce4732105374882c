//! BigBird block-sparse attention: unstructured scalar streams vs dense
//! `b x b` tile streams through block-vectorized ALUs (the paper's
//! Section 7 "Sparsity Blocking" and Fig 17), plus stream parallelization
//! (Fig 16).
//!
//! The two arms are different programs, as in Fig 17: the unstructured one
//! (`gpt_attention`, 9 expressions) scales the scores and normalizes them
//! with a softmax; the blocked one (`gpt_attention_blocked`, 4 expressions)
//! is score, mask, exp and AV only. The speedup is not like for like.
//!
//! Every run it prints is first verified against the reference interpreter,
//! so a wrong answer, blocked or not, exits with an error.
//!
//! Run with `cargo run --release --example attention_blocking`.

use fuseflow::core::pipeline::compile_run_verify;
use fuseflow::core::schedule::Schedule;
use fuseflow::models::{gpt_attention, gpt_attention_blocked, Fusion, ModelInstance};
use fuseflow::sim::{SimConfig, Stats};

/// Compiles and simulates `m` under `sched`, and verifies its outputs.
fn checked_run(m: &ModelInstance, sched: &Schedule) -> Result<Stats, Box<dyn std::error::Error>> {
    Ok(compile_run_verify(&m.program, sched, &m.inputs, &SimConfig::default())?.stats)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seq, dh) = (128, 64);
    println!("BigBird attention, seq={seq}, d_head={dh} (window+global+random mask)\n");

    for block in [16usize, 32, 64] {
        let unstructured = gpt_attention(seq, dh, block, 7);
        let blocked = gpt_attention_blocked(seq, dh, block, 7);
        let cu = checked_run(&unstructured, &unstructured.schedule(Fusion::Full))?;
        let cb = checked_run(&blocked, &blocked.schedule(Fusion::Full))?;
        println!(
            "block {block:>2}: unstructured {:>10} cycles | blocked {:>8} cycles | speedup {:>5.1}x",
            cu.cycles,
            cb.cycles,
            cu.cycles as f64 / cb.cycles as f64
        );
    }

    // Stream parallelization on the attention rows (Fig 16a).
    println!("\nparallelizing the unstructured pipeline's row index:");
    let m = gpt_attention(96, 16, 8, 9);
    let i_var = m.program.exprs()[0].output.indices[0];
    let mut base = 0u64;
    for factor in [1usize, 2, 4, 8] {
        let sched = m.schedule(Fusion::Partial).with_parallelization(i_var, factor);
        let stats = checked_run(&m, &sched)?;
        if factor == 1 {
            base = stats.cycles;
        }
        println!(
            "  factor {factor}: {:>10} cycles ({:.2}x)",
            stats.cycles,
            base as f64 / stats.cycles as f64
        );
    }
    Ok(())
}
