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
//! Run with `cargo run --release --example attention_blocking`.

use fuseflow::core::pipeline::{compile, run};
use fuseflow::models::{gpt_attention, gpt_attention_blocked, Fusion};
use fuseflow::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seq, dh) = (128, 64);
    println!("BigBird attention, seq={seq}, d_head={dh} (window+global+random mask)\n");

    for block in [16usize, 32, 64] {
        let unstructured = gpt_attention(seq, dh, block, 7);
        let blocked = gpt_attention_blocked(seq, dh, block, 7);
        let cu = {
            let c = compile(&unstructured.program, &unstructured.schedule(Fusion::Full))?;
            run(&unstructured.program, &c, &unstructured.inputs, &SimConfig::default())?.stats
        };
        let cb = {
            let c = compile(&blocked.program, &blocked.schedule(Fusion::Full))?;
            run(&blocked.program, &c, &blocked.inputs, &SimConfig::default())?.stats
        };
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
        let c = compile(&m.program, &sched)?;
        let stats = run(&m.program, &c, &m.inputs, &SimConfig::default())?.stats;
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
