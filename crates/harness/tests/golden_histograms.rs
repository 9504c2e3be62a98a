//! Golden histograms: the exact outcome histograms of a fixed set of
//! fixed-seed cells, pinned in `tests/data/golden_histograms.txt`.
//!
//! The determinism tests elsewhere compare two runs of one build; this
//! one compares the current build against histograms recorded by an
//! earlier one, so a change to the simulator or the campaign engine that
//! shifts a single RNG draw fails here, naming the first differing cell.
//!
//! The pinned cells are:
//!
//! * the built-in corpus (72 tests) × [`Chip::TABLED`] at 200 runs per
//!   cell, once under [`default_incantations`] and once under
//!   [`Incantations::none`] (thread randomisation off, CTAs placed
//!   round-robin on SMs);
//! * the `small` diy family on the GTX Titan at 64 runs per cell, under
//!   [`default_incantations`].
//!
//! A change that is meant to alter histograms regenerates the file with
//! `cargo test -p weakgpu-harness --test golden_histograms -- --ignored`
//! and says so.

use weakgpu_diy::{generate, GenConfig};
use weakgpu_harness::campaign::{default_incantations, run_campaign, CampaignConfig, CellSpec};
use weakgpu_harness::TestReport;
use weakgpu_litmus::{corpus, corpus_extra};
use weakgpu_sim::chip::{Chip, Incantations};

/// The pinned histograms, one cell per line.
const GOLDEN: &str = include_str!("data/golden_histograms.txt");

/// Base seed of every pinned cell.
const SEED: u64 = 0x601d_5eed;

/// The pinned cells, each tagged with the name of its set.
fn cells() -> Vec<(&'static str, CellSpec)> {
    let mut corpus = corpus::all();
    corpus.extend(corpus_extra::all_extra());
    let mut cells = Vec::new();
    for test in corpus {
        for chip in Chip::TABLED {
            let cell = CellSpec::new(test.clone(), chip).iterations(200).seed(SEED);
            cells.push((
                "corpus/default",
                cell.clone().incantations(default_incantations(&test)),
            ));
            cells.push(("corpus/none", cell.incantations(Incantations::none())));
        }
    }
    for test in generate(&GenConfig::small()) {
        let inc = default_incantations(&test);
        let cell = CellSpec::new(test, Chip::GtxTitan)
            .incantations(inc)
            .iterations(64)
            .seed(SEED);
        cells.push(("small/titan", cell));
    }
    cells
}

/// `set<TAB>test<TAB>chip<TAB>count outcome | count outcome | …`, in
/// canonical outcome order.
fn render(set: &str, report: &TestReport) -> String {
    let entries: Vec<String> = report
        .histogram
        .iter()
        .map(|(outcome, n)| format!("{n} {}", outcome.to_string().trim_end()))
        .collect();
    format!(
        "{set}\t{}\t{}\t{}",
        report.test,
        report.chip.short(),
        entries.join(" | ")
    )
}

/// The current build's rendering of every pinned cell.
fn current() -> Vec<String> {
    let cells = cells();
    let specs: Vec<CellSpec> = cells.iter().map(|(_, c)| c.clone()).collect();
    let reports = run_campaign(&specs, &CampaignConfig::default()).expect("pinned cells run");
    cells
        .iter()
        .zip(&reports)
        .map(|((set, _), report)| render(set, report))
        .collect()
}

/// The cell key (`set`, test, chip) of a rendered line.
fn cell_key(line: &str) -> String {
    line.splitn(4, '\t').take(3).collect::<Vec<_>>().join(" / ")
}

#[test]
fn histograms_match_the_pinned_golden_file() {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = current();
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert!(
            *want == got.as_str(),
            "first differing cell is #{i}, {}:\n  golden:  {want}\n  current: {got}",
            cell_key(want)
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "the golden file pins {} cells; the current cell set has {}",
        expected.len(),
        actual.len()
    );
}

#[test]
#[ignore = "rewrites the golden file; run only when histograms are meant to change"]
fn regenerate_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_histograms.txt"
    );
    let mut text = String::from(
        "# Golden histograms for tests/golden_histograms.rs.\n\
         # One cell per line: set, test, chip, then `count outcome` entries\n\
         # in canonical outcome order, separated by ` | `.\n",
    );
    for line in current() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(path, text).expect("write the golden file");
}
