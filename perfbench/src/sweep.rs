//! `sweep-paper`: one CI validation shard of the paper family at 200
//! iterations on the five tabled Nvidia chips, warm-started read-only
//! from a small-family verdict cache, as the CI `validation-shards` job
//! runs it (`weakgpu sweep --family paper --shard K/N --iterations 200
//! --cache-file verdicts.wgc --cache-readonly --out shard.json`).
//!
//! The seed is the sweep seed; the shard is fixed. Thousands of tiny
//! cells make family generation, per-cell simulator compile, chunk
//! scheduling and cache probes weigh here; judging is a few percent.

use std::cell::RefCell;
use std::io::Write;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use weakgpu_axiom::enumerate::{for_each_execution, model_outcomes_counted, EnumConfig};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::{persist, CatModel, VerdictCache};
use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::sweep::{CacheStats, ChipTotals, UnsoundCell};
use weakgpu_harness::{
    default_incantations, run_sweep, run_sweep_with, CellRecord, CellSpec, Shard, SweepConfig,
    SweepReport,
};
use weakgpu_litmus::LitmusTest;
use weakgpu_models::{ptx_model, sources};
use weakgpu_sim::chip::Chip;

use crate::stats::median;
use crate::trace::{Recorder, Trace, NO_ID};
use crate::{engine, layer_split, repeat, secs, RunResult, RunSpec, Scale};

struct Size {
    family: &'static str,
    shard: Shard,
    iterations: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        // One fixed shard, so every seed runs the same tests and only
        // the simulated runs' randomness changes: shards of one family
        // differ in cost by several percent, which would read as noise.
        // The shard count is prime so the round-robin selection does
        // not alias with the per-cycle placement variants, which sit
        // next to each other in the name-sorted family.
        Scale::Full => Size {
            family: "paper",
            shard: Shard {
                index: 1,
                count: 17,
            },
            iterations: 200,
        },
        Scale::Tiny => Size {
            family: "small",
            shard: Shard { index: 1, count: 7 },
            iterations: 20,
        },
    }
}

/// Work before the first run: model load, family generation and the
/// cache-file load.
struct Setup {
    total_s: f64,
    models_s: f64,
    generate_s: f64,
    load_s: f64,
    entries: usize,
    family: Vec<LitmusTest>,
}

fn setup_once(gen: &GenConfig, warm: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let t = Instant::now();
    let model = CatModel::new("ptx", sources::PTX_CAT).map_err(|e| e.to_string())?;
    std::hint::black_box(&model);
    let models_s = secs(t);
    let t = Instant::now();
    let family = generate(gen);
    let generate_s = secs(t);
    let t = Instant::now();
    let cache = persist::load(warm).map_err(|e| e.to_string())?;
    let load_s = secs(t);
    Ok(Setup {
        total_s: secs(t0),
        models_s,
        generate_s,
        load_s,
        entries: cache.len(),
        family,
    })
}

/// Writes the small-family verdict cache the shard starts from, as the
/// CI `cache-warm` job does (`weakgpu sweep --family small
/// --iterations 100 --cache-file verdicts.wgc`).
fn write_warm_cache(path: &Path, workers: usize) -> Result<(), String> {
    let cfg = SweepConfig {
        family: "small".to_owned(),
        shard: None,
        chips: Chip::NVIDIA_TABLED.to_vec(),
        iterations: 100,
        seed: 0x5eed,
        parallelism: Some(workers),
        pruning: false,
        batching: false,
        incremental: false,
        cache_file: Some(path.to_path_buf()),
        cache_readonly: false,
    };
    run_sweep(&generate(&GenConfig::small()), &cfg).map_err(|e| e.to_string())?;
    Ok(())
}

struct Untraced {
    report: SweepReport,
    wall_s: f64,
    /// Seconds from the pass start to each cell's record.
    done_s: Vec<f64>,
}

/// The program as the CI shard runs it: the sweep streams cell records
/// to JSONL and the aggregate report is written at the end.
fn untraced_pass(family: &[LitmusTest], cfg: &SweepConfig, dir: &Path) -> Result<Untraced, String> {
    let out = dir.join("shard.json");
    let t0 = Instant::now();
    let file = std::fs::File::create(out.with_extension("jsonl")).map_err(|e| e.to_string())?;
    let jsonl = Mutex::new(std::io::BufWriter::new(file));
    let done = Mutex::new(Vec::new());
    let report = run_sweep_with(family, cfg, |rec| {
        let mut w = jsonl.lock().expect("no poisoned locks");
        let _ = writeln!(w, "{}", rec.to_jsonl());
        done.lock().expect("no poisoned locks").push(secs(t0));
    })
    .map_err(|e| e.to_string())?;
    jsonl
        .into_inner()
        .expect("no poisoned locks")
        .flush()
        .map_err(|e| e.to_string())?;
    std::fs::write(&out, report.to_json()).map_err(|e| e.to_string())?;
    Ok(Untraced {
        report,
        wall_s: secs(t0),
        done_s: done.into_inner().expect("no poisoned locks"),
    })
}

struct Traced {
    report: SweepReport,
    wall_s: f64,
    layers: std::collections::BTreeMap<&'static str, f64>,
    trace: Trace,
}

thread_local! {
    static EVAL_CTX: RefCell<EvalContext> = RefCell::new(EvalContext::new());
}

/// The same shard re-driven one layer call at a time: cache-file load,
/// the campaign engine replica ([`engine::run`]), and per cell the
/// cache probe, the judgement of a miss, the publish and the record
/// write, then the aggregate report.
fn traced_pass(
    family: &[LitmusTest],
    cfg: &SweepConfig,
    dir: &Path,
    workers: usize,
) -> Result<Traced, String> {
    let warm = cfg.cache_file.as_ref().ok_or("sweep needs a cache file")?;
    let shard = cfg.shard.ok_or("sweep needs a shard")?;
    let model = ptx_model();
    let enum_cfg = EnumConfig::default();
    let num_chips = cfg.chips.len();
    let out = dir.join("traced.json");
    let selected: Vec<(usize, &LitmusTest)> = family
        .iter()
        .enumerate()
        .filter(|(i, _)| shard.selects(*i))
        .collect();
    let miss_tests: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    let epoch = Instant::now();
    let mut main = Recorder::new(epoch, 0);
    let pass = main.span("pass", NO_ID, |main| -> Result<_, String> {
        let cache = main
            .span("persist.load", NO_ID, |_| persist::load(warm))
            .map_err(|e| e.to_string())?;
        main.count("persist.entries", cache.len() as u64);
        let cells: Vec<CellSpec> = main.span("campaign.plan", NO_ID, |_| {
            selected
                .iter()
                .flat_map(|&(i, test)| {
                    let inc = default_incantations(test);
                    cfg.chips.iter().map(move |&chip| {
                        CellSpec::new(test.clone(), chip)
                            .incantations(inc)
                            .iterations(cfg.iterations)
                            .seed(cfg.seed ^ (i as u64))
                    })
                })
                .collect()
        });
        let cache = Mutex::new(cache);
        let records: Vec<Mutex<Option<CellRecord>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let enum_err: Mutex<Option<String>> = Mutex::new(None);
        let file = std::fs::File::create(out.with_extension("jsonl")).map_err(|e| e.to_string())?;
        let jsonl = Mutex::new(std::io::BufWriter::new(file));

        let traced = engine::run(&cells, workers, main, |rec, ci, report| {
            let (gi, test) = selected[ci / num_chips];
            let id = ci as u64;
            rec.span("sweep.cell", id, |rec| {
                rec.count("cache.probes", 1);
                let (probed, mut hits, mut misses) = {
                    let mut c = rec.span("cache.lock_wait", id, |_| {
                        cache.lock().expect("no poisoned locks")
                    });
                    let probed = rec.span("cache.probe", id, |_| c.lookup(test, &model, &enum_cfg));
                    (probed, c.hits(), c.misses())
                };
                let mut stats = None;
                let mut enum_micros = 0;
                let verdict = match probed {
                    Some(v) => {
                        rec.count("cache.hits", 1);
                        v
                    }
                    None => {
                        let t = Instant::now();
                        let judged = rec.span("enumerate.judge", id, |_| {
                            EVAL_CTX.with(|ctx| {
                                model_outcomes_counted(
                                    test,
                                    &model,
                                    &enum_cfg,
                                    &mut ctx.borrow_mut(),
                                )
                            })
                        });
                        enum_micros = t.elapsed().as_micros() as u64;
                        let (v, s) = match judged {
                            Ok(j) => j,
                            Err(e) => {
                                enum_err
                                    .lock()
                                    .expect("no poisoned locks")
                                    .get_or_insert(format!("{}: {e}", test.name()));
                                return;
                            }
                        };
                        stats = Some(s);
                        rec.count("cache.misses", 1);
                        rec.count("enumerate.judged_candidates", v.num_candidates as u64);
                        rec.peak("enumerate.max_candidates", v.num_candidates as u64);
                        miss_tests
                            .lock()
                            .expect("no poisoned locks")
                            .push(ci / num_chips);
                        let mut c = rec.span("cache.lock_wait", id, |_| {
                            cache.lock().expect("no poisoned locks")
                        });
                        let before = c.len();
                        let published = rec.span("cache.publish", id, |_| {
                            c.publish(test, &model, &enum_cfg, v)
                        });
                        if c.len() > before {
                            rec.count("enumerate.shapes", 1);
                            rec.count("enumerate.candidates", published.num_candidates as u64);
                        }
                        (hits, misses) = (c.hits(), c.misses());
                        published
                    }
                };
                let unsound: Vec<String> = report
                    .histogram
                    .outcomes()
                    .filter(|o| !verdict.allowed_outcomes.contains(*o))
                    .map(ToString::to_string)
                    .collect();
                let s = stats.unwrap_or_default();
                let record = CellRecord {
                    test: test.name().to_owned(),
                    index: gi,
                    chip: report.chip.short().to_owned(),
                    runs: report.histogram.total(),
                    witnesses: report.witnesses,
                    distinct: report.histogram.distinct(),
                    unsound,
                    cache_hits: hits,
                    cache_misses: misses,
                    enum_micros,
                    classes_visited: s.classes_visited,
                    candidates_pruned: s.candidates_pruned,
                    batches_formed: s.batches_formed,
                    lanes_filled: s.lanes_filled,
                    cut_attempt_micros: s.cut_attempt_micros,
                    registers_refilled: s.registers_refilled,
                };
                rec.span("report.write", id, |_| {
                    let mut w = jsonl.lock().expect("no poisoned locks");
                    let _ = writeln!(w, "{}", record.to_jsonl());
                });
                *records[ci].lock().expect("no poisoned locks") = Some(record);
            });
        })?;
        if let Some(e) = enum_err.into_inner().expect("no poisoned locks") {
            return Err(e);
        }
        let cache = cache.into_inner().expect("no poisoned locks");
        let records: Vec<CellRecord> = records
            .into_iter()
            .map(|r| r.into_inner().expect("no poisoned locks"))
            .collect::<Option<_>>()
            .ok_or("a cell produced no record")?;
        let report = main.span("report.write", NO_ID, |_| -> Result<_, String> {
            jsonl
                .into_inner()
                .expect("no poisoned locks")
                .flush()
                .map_err(|e| e.to_string())?;
            let report = aggregate(family.len(), cfg, selected.len(), &records, &cache);
            std::fs::write(&out, report.to_json()).map_err(|e| e.to_string())?;
            Ok(report)
        })?;
        main.count("cache.entries", cache.len() as u64);
        Ok((report, traced.workers))
    });
    let (report, workers_rec) = pass?;
    let wall_s = secs(epoch);
    let mut recs = workers_rec;
    recs.push(main);
    let trace = Trace::merge(recs);

    // Stream time, measured apart from the pass on the same misses: the
    // symbolic execution, skeleton fill and candidate stream under a
    // visitor that does nothing.
    let t = Instant::now();
    for &si in miss_tests.lock().expect("no poisoned locks").iter() {
        for_each_execution(selected[si].1, &enum_cfg, |_| {
            ControlFlow::<()>::Continue(())
        })
        .map_err(|e| e.to_string())?;
    }
    let stream_s = secs(t);

    let pool_s = trace.total_s("campaign.pool");
    let mut layers = layer_split(&trace, wall_s, pool_s, workers);
    for name in [
        "sim.runs",
        "sim.compiles",
        "campaign.chunks",
        "cache.probes",
        "cache.hits",
        "cache.misses",
        "cache.entries",
        "enumerate.candidates",
        "enumerate.shapes",
    ] {
        layers.insert(name, trace.counter(name) as f64);
    }
    layers.insert(
        "enumerate.max_candidates",
        trace.peak("enumerate.max_candidates") as f64,
    );
    let judge_s = trace.total_s("enumerate.judge");
    layers.insert("enumerate.stream_s", stream_s);
    layers.insert("plan.eval_s", judge_s - stream_s);
    layers.insert(
        "plan.ns_per_verdict",
        (judge_s - stream_s) * 1e9 / trace.counter("enumerate.judged_candidates").max(1) as f64,
    );
    layers.insert(
        "sim.ns_per_run",
        layers["sim.run_s"] * 1e9 / trace.counter("sim.runs").max(1) as f64,
    );
    layers.insert(
        "cache.useful_miss_ratio",
        trace.counter("enumerate.shapes") as f64 / trace.counter("cache.misses").max(1) as f64,
    );
    Ok(Traced {
        report,
        wall_s,
        layers,
        trace,
    })
}

/// The aggregate report, assembled from the cell records as the sweep
/// assembles it.
fn aggregate(
    family_size: usize,
    cfg: &SweepConfig,
    tests_run: usize,
    records: &[CellRecord],
    cache: &VerdictCache,
) -> SweepReport {
    let mut per_chip: Vec<ChipTotals> = cfg
        .chips
        .iter()
        .map(|c| ChipTotals {
            chip: c.short().to_owned(),
            cells: 0,
            runs: 0,
            witnessed_cells: 0,
            witnesses: 0,
            unsound_cells: 0,
        })
        .collect();
    let mut unsound = Vec::new();
    let (mut weak_tests, mut witnessed_cells, mut total_runs, mut total_witnesses) = (0, 0, 0, 0);
    for chunk in records.chunks(cfg.chips.len()) {
        if chunk.iter().any(|r| r.witnesses > 0) {
            weak_tests += 1;
        }
        for (r, totals) in chunk.iter().zip(per_chip.iter_mut()) {
            totals.cells += 1;
            totals.runs += r.runs;
            totals.witnesses += r.witnesses;
            total_runs += r.runs;
            total_witnesses += r.witnesses;
            if r.witnesses > 0 {
                totals.witnessed_cells += 1;
                witnessed_cells += 1;
            }
            if !r.unsound.is_empty() {
                totals.unsound_cells += 1;
                unsound.push(UnsoundCell {
                    index: r.index,
                    test: r.test.clone(),
                    chip: r.chip.clone(),
                    outcomes: r.unsound.clone(),
                });
            }
        }
    }
    SweepReport {
        family: cfg.family.clone(),
        family_size: family_size as u64,
        shard: cfg.shard,
        seed: cfg.seed,
        iterations: cfg.iterations as u64,
        chips: cfg.chips.iter().map(|c| c.short().to_owned()).collect(),
        tests_run: tests_run as u64,
        weak_tests,
        cells: records.len() as u64,
        witnessed_cells,
        total_runs,
        total_witnesses,
        unsound_cells: unsound.len() as u64,
        unsound,
        per_chip,
        cache: CacheStats {
            entries: cache.len() as u64,
            hits: cache.hits(),
            misses: cache.misses(),
            enum_micros: records.iter().map(|r| r.enum_micros).sum(),
            warm_entries: cache.warm_entries(),
            warm_hits: cache.warm_hits(),
            cut_attempt_micros: records.iter().map(|r| r.cut_attempt_micros).sum(),
            registers_refilled: records.iter().map(|r| r.registers_refilled).sum(),
        },
    }
}

/// The output checks on one shard report: no cell observed a
/// model-forbidden outcome, every cell ran every iteration, and the
/// warm cache answered some lookups (the CI shard's own assertion).
///
/// # Errors
///
/// Names the first violated check.
pub fn check_report(report: &SweepReport, iterations: u64) -> Result<(), String> {
    if report.unsound_cells != 0 || !report.unsound.is_empty() {
        return Err(format!("{} unsound cells", report.unsound_cells));
    }
    if report.cells == 0 || report.cells != report.tests_run * report.chips.len() as u64 {
        return Err(format!(
            "{} cells for {} tests on {} chips",
            report.cells,
            report.tests_run,
            report.chips.len()
        ));
    }
    if report.total_runs != report.cells * iterations {
        return Err(format!(
            "total_runs {} != cells {} x iterations {iterations}",
            report.total_runs, report.cells
        ));
    }
    if report.cache.warm_hits == 0 {
        return Err("the warm cache answered no lookup".to_owned());
    }
    Ok(())
}

/// Runs `sweep-paper`.
///
/// # Errors
///
/// A sweep that failed outright.
pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let size = size(spec.scale);
    let shard = size.shard;
    let warm: PathBuf = spec.work_dir.join("verdicts.wgc");
    write_warm_cache(&warm, spec.workers)?;
    let gen = GenConfig::named(size.family).ok_or("unknown family")?;
    // The registry builds its model once per process; do it before
    // timing, as a long-lived process would have.
    let _ = ptx_model();

    // Each setup replaces the family the previous one generated, so
    // only one family is ever held, as in a real process.
    let mut family = Vec::new();
    let setups = repeat(5, 50, Duration::from_secs(2), || {
        drop(std::mem::take(&mut family));
        setup_once(&gen, &warm).map(|mut s| {
            family = std::mem::take(&mut s.family);
            s
        })
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let family = &family;
    let cfg = SweepConfig {
        family: size.family.to_owned(),
        shard: Some(shard),
        chips: Chip::NVIDIA_TABLED.to_vec(),
        iterations: size.iterations,
        seed: spec.seed,
        parallelism: Some(spec.workers),
        pruning: false,
        batching: false,
        incremental: false,
        cache_file: Some(warm.clone()),
        cache_readonly: true,
    };

    let mut untraced: Vec<Untraced> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let rss = crate::measure(spec, |trace| {
        if trace {
            // Only the last traced pass keeps its spans, for the span file.
            if let Some(prev) = traced.last_mut() {
                prev.trace = Trace::default();
            }
            traced.push(traced_pass(family, &cfg, &spec.work_dir, spec.workers)?);
        } else {
            untraced.push(untraced_pass(family, &cfg, &spec.work_dir)?);
        }
        Ok(())
    })?;

    let mut r = RunResult::default();
    let iterations = size.iterations as u64;
    for (i, u) in untraced.iter().enumerate() {
        if let Err(e) = check_report(&u.report, iterations) {
            r.check(false, format!("untraced pass {i}: {e}"));
        }
        r.check(
            u.report.totals_match(&untraced[0].report),
            format!("untraced pass {i} differs from pass 0"),
        );
        r.attempted += u.report.cells;
        r.failed += u.report.unsound_cells;
    }
    for (i, t) in traced.iter().enumerate() {
        if let Err(e) = check_report(&t.report, iterations) {
            r.check(false, format!("traced pass {i}: {e}"));
        }
        r.check(
            t.report.totals_match(&untraced[0].report),
            format!("traced pass {i} differs from the untraced report"),
        );
    }

    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let walls: Vec<f64> = untraced.iter().map(|u| u.wall_s).collect();
    if spec.trace {
        let mut layers = crate::median_layers(traced.iter().map(|t| &t.layers));
        layers.insert(
            "diy.generate_s",
            median(&setups.iter().map(|s| s.generate_s).collect::<Vec<_>>()),
        );
        layers.insert(
            "models.load_s",
            median(&setups.iter().map(|s| s.models_s).collect::<Vec<_>>()),
        );
        layers.insert(
            "persist.load_s",
            median(&setups.iter().map(|s| s.load_s).collect::<Vec<_>>()),
        );
        layers.insert("persist.entries", setups[0].entries as f64);
        layers.insert("diy.tests", family.len() as f64);
        let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        layers.insert("trace.overhead_share", traced_wall / median(&walls) - 1.0);
        r.metrics = layers;
        if let Some(last) = traced.last() {
            crate::write_spans(spec, &last.trace)?;
        }
    } else {
        let done: Vec<&[f64]> = untraced.iter().map(|u| u.done_s.as_slice()).collect();
        let rates: Vec<f64> = untraced
            .iter()
            .map(|u| u.report.total_runs as f64 / u.wall_s)
            .collect();
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
            "sweep-paper: shard {shard} of the {} family ({} tests), {} cells x {} iterations, {} passes, {} setups",
            size.family,
            family.len(),
            untraced[0].report.cells,
            size.iterations,
            untraced.len(),
            setups.len()
        ));
        r.notes.push(format!(
            "work_per_s = simulated runs/s; p50_us/p99_us = time from pass start to a cell's record, median over passes (n={} per pass)",
            done[0].len()
        ));
        r.notes.push(format!(
            "pass walls (s): {walls:.3?}; setups (s): {setup_s:.3?}"
        ));
    }
    Ok(r)
}
