//! `campaign-corpus`: the built-in corpus (72 tests, spin-lock and dlb
//! idioms included) on the seven tabled chips as one campaign of long
//! cells, as the figure binaries and `weakgpu campaign` run it.
//!
//! The seed is the campaign seed. The simulator's run loop dominates;
//! there is no family generation and no judging, so a change that buys
//! faster runs with costlier per-cell setup gains here and loses on
//! `sweep-paper`.

use std::time::{Duration, Instant};

use weakgpu_harness::{
    default_incantations, run_campaign_with, CampaignConfig, CellSpec, TestReport,
};
use weakgpu_litmus::LitmusTest;
use weakgpu_sim::chip::Chip;

use crate::stats::median;
use crate::trace::{Recorder, Trace, NO_ID};
use crate::{engine, layer_split, repeat, secs, RunResult, RunSpec, Scale};

struct Size {
    tests: usize,
    chips: &'static [Chip],
    iterations: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            tests: usize::MAX,
            chips: &Chip::TABLED,
            iterations: 5_000,
        },
        Scale::Tiny => Size {
            tests: 4,
            chips: &[Chip::GtxTitan, Chip::Gtx280],
            iterations: 500,
        },
    }
}

/// Test-major cells: one row per test, one column per chip.
fn cells(tests: &[LitmusTest], chips: &[Chip], iterations: usize, seed: u64) -> Vec<CellSpec> {
    tests
        .iter()
        .flat_map(|test| {
            let inc = default_incantations(test);
            chips.iter().map(move |&chip| {
                CellSpec::new(test.clone(), chip)
                    .incantations(inc)
                    .iterations(iterations)
                    .seed(seed)
            })
        })
        .collect()
}

struct Untraced {
    reports: Vec<TestReport>,
    wall_s: f64,
    done_s: Vec<f64>,
}

fn untraced_pass(cells: &[CellSpec], workers: usize) -> Result<Untraced, String> {
    let t0 = Instant::now();
    let done = std::sync::Mutex::new(Vec::with_capacity(cells.len()));
    let reports = run_campaign_with(cells, &CampaignConfig::with_parallelism(workers), |_, _| {
        done.lock().expect("no poisoned locks").push(secs(t0));
    })
    .map_err(|e| e.to_string())?;
    Ok(Untraced {
        reports,
        wall_s: secs(t0),
        done_s: done.into_inner().expect("no poisoned locks"),
    })
}

struct Traced {
    reports: Vec<TestReport>,
    wall_s: f64,
    layers: std::collections::BTreeMap<&'static str, f64>,
    trace: Trace,
}

fn traced_pass(cells: &[CellSpec], workers: usize) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut main = Recorder::new(epoch, 0);
    let traced = main.span("pass", NO_ID, |main| {
        engine::run(cells, workers, main, |_, _, _| {})
    })?;
    let wall_s = secs(epoch);
    let mut recs = traced.workers;
    recs.push(main);
    let trace = Trace::merge(recs);
    let mut layers = layer_split(&trace, wall_s, trace.total_s("campaign.pool"), workers);
    for name in ["sim.runs", "sim.compiles", "campaign.chunks"] {
        layers.insert(name, trace.counter(name) as f64);
    }
    layers.insert(
        "sim.ns_per_run",
        layers["sim.run_s"] * 1e9 / trace.counter("sim.runs").max(1) as f64,
    );
    Ok(Traced {
        reports: traced.reports,
        wall_s,
        layers,
        trace,
    })
}

/// The output checks on one pass: every cell ran every iteration, and
/// every cell's histogram equals the reference pass's bit for bit (the
/// reference is an untraced pass of the same seed).
///
/// # Errors
///
/// Names the first cell that differs.
pub fn check_reports(
    reports: &[TestReport],
    reference: &[TestReport],
    iterations: u64,
) -> Result<(), String> {
    if reports.len() != reference.len() || reports.is_empty() {
        return Err(format!(
            "{} cells against {} in the reference",
            reports.len(),
            reference.len()
        ));
    }
    for (i, (r, reference)) in reports.iter().zip(reference).enumerate() {
        if r.histogram.total() != iterations {
            return Err(format!(
                "cell {i} ({} on {}) ran {} of {iterations} iterations",
                r.test,
                r.chip.short(),
                r.histogram.total()
            ));
        }
        if r != reference {
            return Err(format!(
                "cell {i} ({} on {}) differs from the reference histogram",
                r.test,
                r.chip.short()
            ));
        }
    }
    Ok(())
}

/// Checks passes as they finish. Only the first pass's reports are
/// kept, as the reference for every later pass of the run.
struct Checker {
    reference: Vec<TestReport>,
    iterations: u64,
}

impl Checker {
    fn fold(&mut self, r: &mut RunResult, kind: &str, reports: Vec<TestReport>, untraced: bool) {
        if self.reference.is_empty() {
            self.reference = reports.clone();
        }
        if let Err(e) = check_reports(&reports, &self.reference, self.iterations) {
            r.check(false, format!("{kind} pass: {e}"));
        }
        if untraced {
            r.attempted += reports.len() as u64;
            r.failed += reports
                .iter()
                .filter(|c| c.histogram.total() != self.iterations)
                .count() as u64;
        }
    }
}

/// Runs `campaign-corpus`.
///
/// # Errors
///
/// A campaign that failed outright.
pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let size = size(spec.scale);
    // Corpus construction is all the work the figure binaries do before
    // their first run; it is quick, so it is repeated many times.
    let setup_s: Vec<f64> = repeat(25, 2_000, Duration::from_millis(500), || {
        let t = Instant::now();
        std::hint::black_box(crate::corpus_tests());
        secs(t)
    });
    let mut tests = crate::corpus_tests();
    tests.truncate(size.tests);
    let cells = cells(&tests, size.chips, size.iterations, spec.seed);

    let mut r = RunResult::default();
    let mut checker = Checker {
        reference: Vec::new(),
        iterations: size.iterations as u64,
    };
    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let rss = crate::measure(spec, |trace| {
        if trace {
            // Only the last traced pass keeps its spans, for the span file.
            if let Some(prev) = traced.last_mut() {
                prev.trace = Trace::default();
            }
            let mut t = traced_pass(&cells, spec.workers)?;
            checker.fold(&mut r, "traced", std::mem::take(&mut t.reports), false);
            traced.push(t);
        } else {
            let mut u = untraced_pass(&cells, spec.workers)?;
            checker.fold(&mut r, "untraced", std::mem::take(&mut u.reports), true);
            untraced.push(u);
        }
        Ok(())
    })?;

    let walls: Vec<f64> = untraced.iter().map(|u| u.wall_s).collect();
    if spec.trace {
        let mut layers = crate::median_layers(traced.iter().map(|t| &t.layers));
        layers.insert("litmus.corpus_s", median(&setup_s));
        let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        layers.insert("trace.overhead_share", traced_wall / median(&walls) - 1.0);
        r.metrics = layers;
        if let Some(last) = traced.last() {
            crate::write_spans(spec, &last.trace)?;
        }
    } else {
        let runs = (cells.len() * size.iterations) as f64;
        let rates: Vec<f64> = walls.iter().map(|w| runs / w).collect();
        let done: Vec<&[f64]> = untraced.iter().map(|u| u.done_s.as_slice()).collect();
        r.metrics.insert("setup_s", median(&setup_s));
        r.metrics.insert("peak_rss_mb", rss);
        r.metrics.insert(
            "ok_share",
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        );
        r.metrics.insert("work_per_s", median(&rates));
        r.metrics
            .insert("p50_us", crate::pass_quantile_us(&done, 0.5));
        r.metrics
            .insert("p99_us", crate::pass_quantile_us(&done, 0.99));
        r.notes.push(format!(
            "campaign-corpus: {} tests x {} chips = {} cells x {} iterations, {} passes, {} setups",
            tests.len(),
            size.chips.len(),
            cells.len(),
            size.iterations,
            untraced.len(),
            setup_s.len()
        ));
        r.notes.push(format!(
            "work_per_s = simulated runs/s; p50_us/p99_us = time from pass start to a cell's report, median over passes (n={} per pass)",
            done[0].len()
        ));
        r.notes.push(format!("pass walls (s): {walls:.3?}"));
    }
    Ok(r)
}
