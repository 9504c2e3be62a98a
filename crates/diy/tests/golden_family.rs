//! Golden family fingerprint: the diy cycle lists and test families,
//! pinned in `tests/data/golden_family.txt`.
//!
//! `determinism.rs` compares two calls of one build; this test compares
//! the current build against fingerprints recorded by an earlier one, so
//! a change to cycle enumeration, canonical naming, synthesis or family
//! order fails here, naming the first differing configuration.
//!
//! The pinned lines are:
//!
//! * `cycles`: for the small and full alphabets at `max_edges` 2..=5, the
//!   cycle count and an FNV-1a 64 hash of every cycle's edge names in
//!   stored (walk) order, cycle by cycle;
//! * `family`: for `GenConfig::small()` and `GenConfig::paper()`, the test
//!   count and an FNV-1a 64 hash over each test's name, doc and printed
//!   form, in family order;
//! * `expand`: for 50 fixed cycle indices of the paper configuration, the
//!   cycle's stored edges, and the test names and fingerprint of `expand`
//!   (empty where every placement is infeasible).
//!
//! The hash is written out here because `DefaultHasher` is not stable
//! across Rust releases. A change that is meant to alter the family
//! regenerates the file with
//! `cargo test -p weakgpu-diy --test golden_family -- --ignored`
//! and says so.

use weakgpu_diy::synth::expand;
use weakgpu_diy::{enumerate_cycles, generate, Cycle, Edge, GenConfig};
use weakgpu_litmus::LitmusTest;

/// The pinned fingerprints, one configuration per line.
const GOLDEN: &str = include_str!("data/golden_family.txt");

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes `s` followed by a newline, so adjacent fields cannot run
    /// into each other.
    fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }
}

/// A cycle's edge names in stored (walk) order, joined by `-`.
fn walk(cycle: &Cycle) -> String {
    let names: Vec<String> = cycle.edges().iter().map(Edge::to_string).collect();
    names.join("-")
}

fn cycles_hash(cycles: &[Cycle]) -> u64 {
    let mut h = Fnv::new();
    for c in cycles {
        h.field(&walk(c));
    }
    h.0
}

fn tests_hash(tests: &[LitmusTest]) -> u64 {
    let mut h = Fnv::new();
    for t in tests {
        h.field(t.name());
        h.field(t.doc());
        h.field(&t.to_string());
    }
    h.0
}

/// The pinned cycle indices of the paper configuration.
fn expand_indices() -> impl Iterator<Item = usize> {
    (0..50).map(|k| k * 181 + 3)
}

/// The current build's rendering of every pinned configuration:
/// tab-separated, the configuration key first and the fingerprint last.
fn current() -> Vec<String> {
    let mut lines = Vec::new();
    for (alphabet_name, alphabet) in [
        ("small", Edge::small_alphabet()),
        ("full", Edge::full_alphabet()),
    ] {
        for max_edges in 2..=5 {
            let cycles = enumerate_cycles(&alphabet, max_edges);
            lines.push(format!(
                "cycles\t{alphabet_name}\t{max_edges}\t{}\t{:016x}",
                cycles.len(),
                cycles_hash(&cycles)
            ));
        }
    }
    for family in GenConfig::FAMILY_NAMES {
        let tests = generate(&GenConfig::named(family).expect("a named family"));
        lines.push(format!(
            "family\t{family}\t{}\t{:016x}",
            tests.len(),
            tests_hash(&tests)
        ));
    }
    let cfg = GenConfig::paper();
    let cycles = cfg.cycles();
    for i in expand_indices() {
        let tests = expand(&cycles[i], &cfg);
        let names: Vec<&str> = tests.iter().map(LitmusTest::name).collect();
        lines.push(format!(
            "expand\tpaper\t{i}\t{}\t{}\t{:016x}",
            walk(&cycles[i]),
            names.join(" "),
            tests_hash(&tests)
        ));
    }
    lines
}

/// The configuration key of a rendered line (its first three fields).
fn config_key(line: &str) -> String {
    line.splitn(4, '\t').take(3).collect::<Vec<_>>().join(" / ")
}

#[test]
fn family_matches_the_pinned_golden_file() {
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = current();
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert!(
            *want == got.as_str(),
            "first differing configuration is #{i}, {}:\n  golden:  {want}\n  current: {got}",
            config_key(want)
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "the golden file pins {} configurations; the current set has {}",
        expected.len(),
        actual.len()
    );
}

#[test]
#[ignore = "rewrites the golden file; run only when the family is meant to change"]
fn regenerate_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_family.txt");
    let mut text = String::from(
        "# Golden family fingerprints for tests/golden_family.rs (FNV-1a 64).\n\
         # cycles: alphabet, max_edges, cycle count, hash of edge names.\n\
         # family: name, test count, hash of name, doc and printed test.\n\
         # expand: paper cycle index, stored edges, test names, hash as for family.\n",
    );
    for line in current() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(path, text).expect("write the golden file");
}
