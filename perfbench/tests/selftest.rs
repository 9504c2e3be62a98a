//! Self-test of the benchmark: every workload runs at a tiny size with
//! its checks passing, and every output check fails when handed a
//! corrupted report, histogram or verdict.

use std::path::PathBuf;

use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::{run_campaign, run_sweep, CampaignConfig, CellSpec, Shard, SweepConfig};
use weakgpu_litmus::corpus;
use weakgpu_perfbench::{campaign, run, serve, sweep, RunSpec, Scale, END_TO_END, PER_LAYER};
use weakgpu_sim::chip::Chip;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny(name: &str, trace: bool) -> RunSpec {
    RunSpec {
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: scratch(name).join("work"),
        workers: 2,
        span_path: trace.then(|| scratch(name).join("spans.tsv")),
    }
}

#[test]
fn every_workload_runs_tiny_with_its_checks_passing() {
    for workload in weakgpu_perfbench::WORKLOADS {
        for trace in [false, true] {
            let name = format!("{workload}-{trace}");
            let r = run(workload, &tiny(&name, trace)).unwrap();
            assert!(r.problems.is_empty(), "{name}: {:?}", r.problems);
            assert!(r.attempted > 0 && r.failed == 0, "{name}");
            let line = r.to_json(trace);
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (metric, unit) in names {
                assert!(
                    line.contains(&format!("\"{metric}\": {{\"value\": ")),
                    "{name}: {metric} missing"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for metric in ["setup_s", "work_per_s", "p50_us", "p99_us", "peak_rss_mb"] {
                    assert!(r.metrics[metric] > 0.0, "{name}: {metric} is 0");
                }
            } else {
                assert!(tiny(&name, trace).span_path.unwrap().exists());
                let busy = match workload {
                    "serve-mixed" => ["cache.probes", "litmus.parses", "enumerate.candidates"],
                    _ => ["sim.runs", "campaign.chunks", "sim.compiles"],
                };
                for metric in busy {
                    assert!(r.metrics[metric] > 0.0, "{name}: {metric} is 0");
                }
            }
        }
    }
}

#[test]
fn sweep_check_rejects_a_corrupted_report() {
    let dir = scratch("sweep-check");
    let family = generate(&GenConfig::small());
    let cache_file = dir.join("verdicts.wgc");
    let _ = std::fs::remove_file(&cache_file);
    let mut cfg = SweepConfig {
        family: "small".to_owned(),
        shard: Some(Shard { index: 1, count: 4 }),
        chips: vec![Chip::GtxTitan, Chip::Gtx280],
        iterations: 20,
        seed: 3,
        parallelism: Some(2),
        pruning: false,
        batching: false,
        incremental: false,
        cache_file: Some(cache_file),
        cache_readonly: false,
    };
    run_sweep(&family, &cfg).unwrap();
    cfg.cache_readonly = true;
    let report = run_sweep(&family, &cfg).unwrap();
    sweep::check_report(&report, 20).unwrap();

    let mut unsound = report.clone();
    unsound.unsound_cells = 1;
    assert!(sweep::check_report(&unsound, 20).is_err());
    let mut short = report.clone();
    short.total_runs -= 1;
    assert!(sweep::check_report(&short, 20).is_err());
    let mut cold = report.clone();
    cold.cache.warm_hits = 0;
    assert!(sweep::check_report(&cold, 20).is_err());
    let mut lost = report;
    lost.cells -= 1;
    assert!(sweep::check_report(&lost, 20).is_err());
}

#[test]
fn campaign_check_rejects_a_corrupted_histogram() {
    let cells = vec![
        CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(300),
        CellSpec::new(corpus::mp_volatile(), Chip::Gtx280).iterations(300),
    ];
    let reference = run_campaign(&cells, &CampaignConfig::with_parallelism(2)).unwrap();
    let again = run_campaign(&cells, &CampaignConfig::with_parallelism(1)).unwrap();
    campaign::check_reports(&again, &reference, 300).unwrap();

    // One run moved from one outcome to another: same total, other
    // histogram.
    let original = &again[0].histogram;
    let outcomes: Vec<_> = original.outcomes().cloned().collect();
    assert!(outcomes.len() >= 2, "corr on Titan shows several outcomes");
    let mut h = weakgpu_harness::Histogram::new();
    for (o, n) in original.iter() {
        let shift = i64::from(*o == outcomes[0]) - i64::from(*o == outcomes[1]);
        h.add(o.clone(), n.checked_add_signed(shift).unwrap());
    }
    let mut moved = again.clone();
    moved[0].histogram = h;
    assert!(campaign::check_reports(&moved, &reference, 300).is_err());

    let mut short = again.clone();
    short[1].histogram = weakgpu_harness::Histogram::new();
    assert!(campaign::check_reports(&short, &reference, 300).is_err());
    assert!(campaign::check_reports(&again[..1], &reference, 300).is_err());
}

#[test]
fn serve_checks_reject_corrupted_verdicts() {
    let (reqs, responses) = serve::tiny_session(5, &scratch("serve-check")).unwrap();
    serve::check_session(&reqs, &responses).unwrap();
    serve::check_reference(&reqs, &responses, 5, responses.len()).unwrap();

    // A failed request.
    let mut failed = responses.clone();
    failed[3] = "{\"id\": 3, \"ok\": false, \"error\": \"boom\"}".to_owned();
    assert!(serve::check_session(&reqs, &failed).is_err());

    // A repeat that does not return its first verdict.
    let repeat = (1..responses.len())
        .find(|&i| responses[..i].iter().any(|r| same_key(r, &responses[i])))
        .expect("the tiny session repeats some request");
    let mut changed = responses.clone();
    changed[repeat] = changed[repeat].replace("\"num_allowed\": ", "\"num_allowed\": 9");
    assert!(serve::check_session(&reqs, &changed).is_err());

    // Every verdict consistently wrong: the session check cannot see it,
    // the tree-walk reference does.
    let wrong: Vec<String> = responses
        .iter()
        .map(|r| {
            r.replace(
                "\"allowed_outcomes\": [",
                "\"allowed_outcomes\": [\"bogus\", ",
            )
        })
        .collect();
    serve::check_session(&reqs, &wrong).unwrap();
    assert!(serve::check_reference(&reqs, &wrong, 5, wrong.len()).is_err());
}

/// Whether two responses answer the same test under the same model.
fn same_key(a: &str, b: &str) -> bool {
    let field = |r: &str, k: &str| {
        let v = weakgpu_harness::json::parse(r).unwrap();
        v.get(k).and_then(|x| x.as_str().map(str::to_owned))
    };
    field(a, "test") == field(b, "test") && field(a, "model") == field(b, "model")
}
