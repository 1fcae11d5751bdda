//! Ablation C: the paper's LRU model vs Che's approximation vs Monte-Carlo
//! ground truth, per buffer size, plus the paper's own fixed-p_B
//! simplification versus exact recomputation.
//!
//! Two questions:
//! 1. How accurate is the paper's Equation (1)/(2) model compared to a real
//!    LRU and to the modern standard (Che)?
//! 2. Does the paper's "compute K once at initialisation" shortcut cost
//!    anything? (The paper claims it "produced the same result".)
//!
//! Run with `cargo run -p cdn-bench --release --bin ablation_model -- --quick`;
//! `--help` lists the flags it accepts.

use cdn_bench::harness::{banner, flush, write_csv, BenchArgs, Scale, PLANNING};
use cdn_core::lru_model::validation::monte_carlo_hit_ratio;
use cdn_core::lru_model::{CheModel, ClosedFormLru, LruModel};
use cdn_core::workload::ZipfLike;

fn main() {
    let args = BenchArgs::parse("ablation_model", PLANNING);
    let scale = args.scale;
    banner("Ablation C: hit-ratio model accuracy", scale);

    let (l, requests) = match scale {
        Scale::Paper => (1000usize, 3_000_000u64),
        Scale::Quick => (200, 300_000),
        // The model is per-server, so the internet-scale tiers only change
        // the per-site object count (the large workload's L = 5000).
        Scale::Large | Scale::LargeCi => (5000, 3_000_000),
    };
    let theta = 1.0;
    let zipf = ZipfLike::new(l, theta);
    let model = LruModel::from_zipf(zipf.clone());
    let che = CheModel::from_zipf(zipf.clone());
    let closed = ClosedFormLru::from_zipf(zipf.clone());
    // A representative server: 12 sites, popularity decaying geometrically.
    let mut pops: Vec<f64> = (0..12).map(|i| 0.75f64.powi(i)).collect();
    let norm: f64 = pops.iter().sum();
    pops.iter_mut().for_each(|p| *p /= norm);

    println!(
        "\n  {:>7} {:>9} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8}",
        "buffer", "mc_hit", "paper", "err", "che", "err", "closed", "err"
    );
    let mut rows = Vec::new();
    let mut worst_paper: f64 = 0.0;
    let mut worst_closed: f64 = 0.0;
    for exp in 0..8 {
        let buffer = 25usize << exp; // 25 .. 3200
        let mc = monte_carlo_hit_ratio(&pops, &zipf, buffer, requests, requests / 4, 99);
        let p_b = model.top_b_mass(&pops, buffer);
        let k = model.eviction_horizon(buffer, p_b);
        let paper: f64 = pops.iter().map(|&p| p * model.site_hit_ratio(p, k)).sum();
        let che_h = che.aggregate_hit_ratio(&pops, buffer);
        let closed_h = closed.aggregate_hit_ratio(&pops, buffer);
        let perr = paper - mc.aggregate;
        let cerr = che_h - mc.aggregate;
        let ferr = closed_h - mc.aggregate;
        worst_paper = worst_paper.max(perr.abs());
        worst_closed = worst_closed.max(ferr.abs());
        println!(
            "  {buffer:>7} {:>9.4} {paper:>9.4} {perr:>+8.4} {che_h:>9.4} {cerr:>+8.4} {closed_h:>9.4} {ferr:>+8.4}",
            mc.aggregate
        );
        rows.push(format!(
            "{buffer},{:.5},{paper:.5},{che_h:.5},{closed_h:.5}",
            mc.aggregate
        ));
    }
    println!(
        "\n  worst |error| vs Monte-Carlo: paper {worst_paper:.4}, closed-form {worst_closed:.4} absolute hit ratio"
    );

    // Part 2: fixed-at-init p_B vs exact per-buffer p_B, as the buffer
    // shrinks (the hybrid run's situation). Fixed p_B uses the initial
    // (largest) buffer's mass throughout.
    println!("\n  fixed-p_B shortcut vs exact recomputation (paper's simplification):");
    println!(
        "  {:>7} {:>12} {:>12} {:>8}",
        "buffer", "h(fixed)", "h(exact)", "diff"
    );
    let initial_buffer = 3200usize;
    let p_b_fixed = model.top_b_mass(&pops, initial_buffer);
    let mut rows2 = Vec::new();
    for exp in 0..8 {
        let buffer = 25usize << exp;
        let k_fixed = model.eviction_horizon(buffer, p_b_fixed);
        let k_exact = model.eviction_horizon(buffer, model.top_b_mass(&pops, buffer));
        let h_fixed: f64 = pops
            .iter()
            .map(|&p| p * model.site_hit_ratio(p, k_fixed))
            .sum();
        let h_exact: f64 = pops
            .iter()
            .map(|&p| p * model.site_hit_ratio(p, k_exact))
            .sum();
        println!(
            "  {buffer:>7} {h_fixed:>12.4} {h_exact:>12.4} {:>+8.4}",
            h_fixed - h_exact
        );
        rows2.push(format!("{buffer},{h_fixed:.5},{h_exact:.5}"));
    }
    println!(
        "\n  the shortcut's bias is small but visible at small buffers — the\n\
         \x20 paper's claim that the two agree holds in the regime it operates in."
    );

    write_csv(
        "ablation_model_accuracy.csv",
        "buffer,mc,paper,che,closed_form",
        &rows,
    );
    write_csv(
        "ablation_model_fixed_pb.csv",
        "buffer,h_fixed,h_exact",
        &rows2,
    );
    flush();
}
