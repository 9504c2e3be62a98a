//! End-to-end benchmark of `weakgpu`.
//!
//! Three workloads drive the public APIs the way users do:
//!
//! * `sweep-paper` — one CI validation shard of the paper family
//!   (`weakgpu_harness::sweep`), warm-started from a small-family
//!   verdict cache;
//! * `campaign-corpus` — the built-in corpus on the seven tabled chips
//!   as one long-celled campaign (`weakgpu_harness::campaign`);
//! * `serve-mixed` — a closed-loop, single-client verdict session
//!   (`weakgpu_harness::serve`) with a cache file loaded before and
//!   saved after.
//!
//! An untraced run measures the end-to-end metrics. A traced run
//! re-drives the same inputs one layer call at a time with a span
//! around each call ([`trace`]), which yields the per-layer split.

pub mod campaign;
pub mod engine;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep-paper", "campaign-corpus", "serve-mixed"];

/// End-to-end metrics and their units. Every untraced run reports all
/// of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("work_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// Per-layer metrics and their units. Every traced run reports all of
/// them; a layer a workload never calls reads 0. A `count` repeats
/// exactly for a fixed seed; a `count-racy` may not, because two
/// sweep workers can both miss on one shape before either publishes.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("diy.generate_s", "s"),
    ("diy.tests", "count"),
    ("models.load_s", "s"),
    ("litmus.corpus_s", "s"),
    ("persist.load_s", "s"),
    ("persist.entries", "count"),
    ("persist.save_s", "s"),
    ("json.parse_s", "s"),
    ("litmus.parse_s", "s"),
    ("litmus.parses", "count"),
    ("sim.compile_s", "s"),
    ("sim.compiles", "count"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.ns_per_run", "ns"),
    ("campaign.overhead_s", "s"),
    ("campaign.chunks", "count"),
    ("campaign.worker_idle_s", "s"),
    ("cache.probe_s", "s"),
    ("cache.probes", "count"),
    ("cache.hits", "count-racy"),
    ("cache.misses", "count-racy"),
    ("cache.entries", "count"),
    ("cache.publish_s", "s"),
    ("cache.lock_wait_s", "s"),
    ("cache.useful_miss_ratio", "ratio"),
    ("enumerate.stream_s", "s"),
    ("enumerate.candidates", "count"),
    ("enumerate.shapes", "count"),
    ("enumerate.max_candidates", "count"),
    ("plan.eval_s", "s"),
    ("plan.ns_per_verdict", "ns"),
    ("report.write_s", "s"),
    ("serve.respond_s", "s"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Span names that belong to a layer. Self time of any other span
/// (the pass root, a serve request's envelope, the pool's wait) is
/// work no layer span covers and counts as unattributed.
pub const LAYER_SPANS: [&str; 15] = [
    "persist.load",
    "litmus.corpus",
    "persist.save",
    "json.parse",
    "litmus.parse",
    "sim.compile",
    "sim.run",
    "campaign.plan",
    "campaign.worker",
    "cache.probe",
    "cache.publish",
    "cache.lock_wait",
    "enumerate.judge",
    "report.write",
    "serve.respond",
];

/// How big a run's inputs are.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A few cells or requests, for the self-tests.
    Tiny,
}

/// One run's request.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for the run's files; created and removed by the run.
    pub work_dir: PathBuf,
    /// Worker threads of the engine.
    pub workers: usize,
    /// Where a traced run writes the spans of its last traced pass.
    pub span_path: Option<PathBuf>,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Problems the output checks found (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted (cells or requests) in measured passes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the run's kind with its unit.
    pub fn to_json(&self, trace: bool) -> String {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Runs `workload`.
///
/// # Errors
///
/// An unknown workload, or a failure that left no result to check.
pub fn run(workload: &str, spec: &RunSpec) -> Result<RunResult, String> {
    std::fs::create_dir_all(&spec.work_dir)
        .map_err(|e| format!("{}: {e}", spec.work_dir.display()))?;
    let result = match workload {
        "sweep-paper" => sweep::run(spec),
        "campaign-corpus" => campaign::run(spec),
        "serve-mixed" => serve::run(spec),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    // Best effort: a leftover work directory is only disk litter.
    let _ = std::fs::remove_dir_all(&spec.work_dir);
    result
}

/// The measuring loop every workload shares; `pass(traced)` runs one
/// pass. Untraced, passes run until `spec.seconds` have passed, and one
/// traced pass follows outside the measured window for the
/// traced-versus-untraced output check. Traced, untraced and traced
/// passes interleave, so the tracing overhead is measured under the
/// same host conditions. Returns the peak RSS right after the measured
/// window.
///
/// # Errors
///
/// The first pass that failed outright.
pub fn measure(
    spec: &RunSpec,
    mut pass: impl FnMut(bool) -> Result<(), String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (0, 0);
    while untraced == 0
        || (spec.trace && traced == 0)
        || t0.elapsed() < Duration::from_secs_f64(spec.seconds)
    {
        // Pairs run untraced-traced, then traced-untraced (ABBA), so
        // whatever a pass leaves warm for the next one favours neither.
        let trace_now = spec.trace && matches!((untraced + traced) % 4, 1 | 2);
        pass(trace_now)?;
        if trace_now {
            traced += 1;
        } else {
            untraced += 1;
        }
    }
    let rss = stats::peak_rss_mb()?;
    if !spec.trace {
        pass(true)?;
    }
    Ok(rss)
}

/// Runs `f` repeatedly: at least `min` times and until `budget` has
/// passed, at most `max` times. Returns every result.
pub fn repeat<T>(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < min || t0.elapsed() < budget) {
        out.push(f());
    }
    out
}

/// The built-in corpus (72 tests), as `weakgpu campaign` and `serve`
/// build it.
pub fn corpus_tests() -> Vec<weakgpu_litmus::LitmusTest> {
    let mut v = weakgpu_litmus::corpus::all();
    v.extend(weakgpu_litmus::corpus_extra::all_extra());
    v
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The per-layer values every traced pass yields from its trace:
/// thread-seconds of self time per layer, worker idle time, and the
/// unattributed remainder. `pool` is the wall time the worker pool ran
/// (0 for single-threaded passes) and `workers` its thread count.
pub fn layer_split(
    trace: &trace::Trace,
    wall_s: f64,
    pool_s: f64,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let own = trace.self_s();
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    // Chunk planning and the worker loop's own time (chunk dispatch,
    // RNG seeding, histogram merging) are the campaign engine's work
    // outside `run_batch` and compile.
    m.insert(
        "campaign.overhead_s",
        get("campaign.worker") + get("campaign.plan"),
    );
    let worker_life = trace.total_s("campaign.worker");
    let idle = (workers as f64 * pool_s - worker_life).max(0.0);
    m.insert("campaign.worker_idle_s", idle);
    m.insert("sim.compile_s", get("sim.compile"));
    m.insert("sim.run_s", get("sim.run"));
    m.insert("cache.probe_s", get("cache.probe"));
    m.insert("cache.publish_s", get("cache.publish"));
    m.insert("cache.lock_wait_s", get("cache.lock_wait"));
    m.insert("report.write_s", get("report.write"));
    m.insert("json.parse_s", get("json.parse"));
    m.insert("litmus.parse_s", get("litmus.parse"));
    m.insert("serve.respond_s", get("serve.respond"));
    m.insert("persist.save_s", get("persist.save"));
    m.insert("litmus.corpus_s", get("litmus.corpus"));
    // Thread time available to the pass: the main thread outside the
    // pool, plus every worker slot while the pool ran.
    let capacity = wall_s - pool_s + workers as f64 * pool_s;
    let attributed: f64 = LAYER_SPANS.iter().map(|n| get(n)).sum();
    m.insert("unattributed_s", (capacity - attributed - idle).max(0.0));
    m.insert("trace.wall_s", wall_s);
    m
}

/// The median over passes of each pass's `q`-quantile of `seconds`,
/// in microseconds.
pub fn pass_quantile_us(passes: &[&[f64]], q: f64) -> f64 {
    let per_pass: Vec<f64> = passes.iter().map(|p| stats::quantile(p, q) * 1e6).collect();
    stats::median(&per_pass)
}

/// The per-metric median over several traced passes.
pub fn median_layers<'a>(
    passes: impl Iterator<Item = &'a BTreeMap<&'static str, f64>>,
) -> BTreeMap<&'static str, f64> {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (&k, &v) in pass {
            all.entry(k).or_default().push(v);
        }
    }
    all.into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

/// Writes `trace`'s spans to the run's span file, if it has one.
///
/// # Errors
///
/// An I/O failure writing the file.
pub fn write_spans(spec: &RunSpec, trace: &trace::Trace) -> Result<(), String> {
    match &spec.span_path {
        Some(path) => trace
            .write_tsv(path)
            .map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(()),
    }
}
