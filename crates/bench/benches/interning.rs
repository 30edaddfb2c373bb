//! Tree vs interned vs memoised evaluation on the differential-suite
//! graph families.
//!
//! The §3 measure observes `size(C)` at every rule application; the
//! hash-consed arena (`nra_core::value::intern`) turns those observations,
//! `clone`s and fixpoint equality tests into `O(1)` handle operations, and
//! the apply cache (`EvalConfig::memoised`, keyed `(EId, VId) → VId` on
//! the expression arena of `nra_core::expr::intern`) skips re-deriving
//! judgments already seen — the BDD-style trick that collapses the
//! repeated body applications inside `while`. This bench quantifies both
//! wins on the workloads the differential harnesses verify — transitive
//! closure on chains, random DAGs, grids, cliques and sparse random
//! graphs via the `while` route, and the powerset route on a small chain
//! — and appends the results to `BENCH_eval.json` at the repository root
//! so the perf trajectory accumulates across PRs.
//!
//! ```sh
//! NRA_BENCH_SAMPLES=2 cargo bench -p nra-bench --bench interning
//! ```

use nra_bench::{
    bench_samples, fmt_duration, standard_dense_comparisons, standard_eval_comparisons,
    write_bench_eval_json, EvalComparison,
};

fn main() {
    let samples = bench_samples();
    // chain/DAG/grid/clique/sparse families through the while route
    // (object sizes Θ(n⁴) at the self-product), plus the powerset route
    // on a small chain — see nra_bench::standard_eval_comparisons
    let comparisons = standard_eval_comparisons(samples);
    // the serving-scale closure table (tc_arena on the 512-node graph
    // families)
    let dense = standard_dense_comparisons(samples);

    println!(
        "tree vs interned vs memoised vs semi-naive eager evaluation, plus session warm \
         re-evaluation and the {}-job/{}-worker batch ({samples} samples, median):",
        nra_bench::BATCH_JOBS,
        nra_bench::BATCH_WORKERS
    );
    println!(
        "{:<20} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload",
        "n",
        "tree",
        "interned",
        "memoised",
        "seminaive",
        "optimised",
        "warm",
        "batch",
        "shwarm",
        "intern×",
        "memo×",
        "semi×",
        "opt×",
        "warm×",
        "batch×",
        "shwarm×"
    );
    for c in &comparisons {
        println!(
            "{:<20} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            c.workload,
            c.n,
            fmt_duration(c.tree),
            fmt_duration(c.interned),
            fmt_duration(c.memoised),
            fmt_duration(c.seminaive),
            fmt_duration(c.optimised),
            fmt_duration(c.warm),
            fmt_duration(c.batch),
            fmt_duration(c.shared_warm),
            c.speedup(),
            c.memo_speedup(),
            c.seminaive_speedup(),
            c.optimised_speedup(),
            c.warm_speedup(),
            c.batch_speedup(),
            c.shared_warm_speedup()
        );
    }
    let min = comparisons
        .iter()
        .map(EvalComparison::speedup)
        .fold(f64::INFINITY, f64::min);
    let min_memo = comparisons
        .iter()
        .map(EvalComparison::memo_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_semi = comparisons
        .iter()
        .map(EvalComparison::seminaive_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_optimised = comparisons
        .iter()
        .map(EvalComparison::optimised_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_warm = comparisons
        .iter()
        .map(EvalComparison::warm_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_batch = comparisons
        .iter()
        .map(EvalComparison::batch_speedup)
        .fold(f64::INFINITY, f64::min);
    let min_shared_warm = comparisons
        .iter()
        .map(EvalComparison::shared_warm_speedup)
        .fold(f64::INFINITY, f64::min);
    println!("minimum interned speedup across workloads:   {min:.2}x");
    println!("minimum memo speedup across workloads:       {min_memo:.2}x");
    println!("minimum semi-naive speedup across workloads: {min_semi:.2}x");
    println!("minimum optimised speedup across workloads:  {min_optimised:.2}x");
    println!("minimum warm-start speedup across workloads: {min_warm:.2}x");
    println!("minimum batch speedup across workloads:      {min_batch:.2}x");
    println!("minimum shared-warm speedup across workloads: {min_shared_warm:.2}x");

    println!();
    println!("transitive closure (tc_arena) on the serving-scale families:");
    println!(
        "{:<22} {:>4} {:>7} {:>10}",
        "workload", "n", "edges", "tc_arena"
    );
    for d in &dense {
        println!(
            "{:<22} {:>4} {:>7} {:>10}",
            d.workload,
            d.n,
            d.edges,
            fmt_duration(d.dense)
        );
    }

    let path = write_bench_eval_json(&comparisons, &dense, samples).expect("write BENCH_eval.json");
    println!("wrote {}", path.display());
}
