//! Criterion benchmark for the **end-to-end cache-miss verdict path**:
//! everything a sweep worker does the first time it meets a test shape —
//! enumerate the candidate executions *and* judge each one through the
//! PTX model's compiled plan.
//!
//! The measured path is `model_outcomes_with` over the skeleton/overlay
//! visitor: one in-place-refilled `ExecutionSkeleton` per trace
//! combination, an in-place rf/co `Overlay` per candidate, and plan
//! evaluation that refills only the rf/co-derived base relations
//! (skeleton-derived relations and the registers depending on them are
//! computed once per skeleton). The workload is the built-in corpus
//! plus a sample of the paper family — the shapes a sweep really meets.
//!
//! Besides the criterion numbers, a JSON summary is written to
//! `BENCH_enumerate.json` at the repository root (skipped under
//! `--test`). Every field in it is measured by the run that writes it.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use weakgpu_axiom::enumerate::{model_outcomes_with, EnumConfig};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::Model;
use weakgpu_diy::{generate, GenConfig};
use weakgpu_litmus::{corpus, LitmusTest};
use weakgpu_models::ptx_model;

/// The benchmark workload: every corpus idiom plus a deterministic
/// sample of the paper-scale generated family (every `stride`-th test,
/// so the sample spans the family's shape variety instead of one
/// prefix's).
fn workload() -> Vec<LitmusTest> {
    let mut tests = corpus::all();
    let paper = generate(&GenConfig::paper());
    let stride = (paper.len() / 40).max(1);
    tests.extend(paper.into_iter().step_by(stride).take(40));
    tests
}

/// The streaming cache-miss path, exactly as the sweep worker runs it.
fn streaming_pass(
    tests: &[LitmusTest],
    model: &dyn Model,
    ctx: &mut EvalContext,
    cfg: &EnumConfig,
) -> (usize, usize) {
    let mut candidates = 0usize;
    let mut allowed = 0usize;
    for test in tests {
        let out = model_outcomes_with(test, model, cfg, ctx).unwrap();
        candidates += out.num_candidates;
        allowed += out.num_allowed;
    }
    (candidates, allowed)
}

fn bench_enumerators(c: &mut Criterion) {
    let tests = workload();
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let mut g = c.benchmark_group("cache_miss_enumeration");
    g.bench_function("streaming", |b| {
        b.iter(|| black_box(streaming_pass(&tests, &model, &mut ctx, &cfg)));
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_enumerators
}

/// Measures end-to-end verdicts/sec over the fixed workload outside
/// criterion and writes the JSON summary: the median of several timed
/// passes, so one noisy-neighbour window does not set the number.
fn write_bench_json() {
    let tests = workload();
    let model = ptx_model();
    let cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let max_candidates = tests
        .iter()
        .map(|t| {
            model_outcomes_with(t, &model, &cfg, &mut ctx)
                .unwrap()
                .num_candidates
        })
        .max()
        .unwrap_or(0);

    let rounds = 16;
    let mut counts = (0usize, 0usize);
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        counts = black_box(streaming_pass(&tests, &model, &mut ctx, &cfg));
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let median_s = times[times.len() / 2];
    let streaming_vps = counts.0 as f64 / median_s;

    let json = format!(
        "{{\n  \"bench\": \"enumerate\",\n  \"model\": \"{}\",\n  \"workload\": \"corpus + paper-family sample, end-to-end cache-miss verdicts\",\n  \"tests\": {},\n  \"candidates_per_pass\": {},\n  \"allowed_per_pass\": {},\n  \"max_candidates\": {max_candidates},\n  \"rounds\": {rounds},\n  \"median_pass_micros\": {:.0},\n  \"streaming_verdicts_per_sec\": {streaming_vps:.0},\n  \"streaming_ns_per_verdict\": {:.1}\n}}\n",
        model.name(),
        tests.len(),
        counts.0,
        counts.1,
        median_s * 1e6,
        median_s * 1e9 / counts.0 as f64,
    );
    // CARGO_MANIFEST_DIR is crates/bench; the summary lives at the repo
    // root regardless of the invoking working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_enumerate.json");
    std::fs::write(path, &json).expect("write BENCH_enumerate.json");
    println!("wrote {path}:\n{json}");
}

fn main() {
    benches();
    // `cargo test --benches` smoke-runs with `--test`: skip the timing
    // sweep there, it would measure a debug build.
    if !std::env::args().any(|a| a == "--test") {
        write_bench_json();
    }
}
