//! The canonical cycle walk against the exhaustive one it replaced.
//!
//! `reference_cycles` below is the original enumeration: every
//! direction-chained edge sequence of each length, in alphabet order,
//! kept when it is a valid cycle whose name (built from one `Vec<String>`
//! per rotation) is new. `enumerate_cycles` must return the same cycles,
//! in the same order and stored rotation, on alphabets in any order and
//! with repeated edges.

use std::collections::BTreeSet;

use weakgpu_diy::{enumerate_cycles, Cycle, Dir, Edge, GenConfig};

/// The canonical name as first defined: the least rotation ending in an
/// external edge, compared as a vector of edge-name strings.
fn reference_name(cycle: &Cycle) -> String {
    let edges = cycle.edges();
    let n = edges.len();
    let mut best: Option<Vec<String>> = None;
    for r in 0..n {
        if !edges[(r + n - 1) % n].is_external() {
            continue;
        }
        let names: Vec<String> = (0..n).map(|i| edges[(r + i) % n].to_string()).collect();
        if best.as_ref().is_none_or(|b| names < *b) {
            best = Some(names);
        }
    }
    best.expect("cycles contain an external edge").join("-")
}

fn reference_cycles(alphabet: &[Edge], max_edges: usize) -> Vec<Cycle> {
    fn extend(
        alphabet: &[Edge],
        len: usize,
        stack: &mut Vec<Edge>,
        seen: &mut BTreeSet<String>,
        out: &mut Vec<Cycle>,
    ) {
        if stack.len() == len {
            if let Some(cycle) = Cycle::new(stack.clone()) {
                if seen.insert(reference_name(&cycle)) {
                    out.push(cycle);
                }
            }
            return;
        }
        for &e in alphabet {
            if stack.last().is_some_and(|p| p.to_dir() != e.from_dir()) {
                continue;
            }
            stack.push(e);
            extend(alphabet, len, stack, seen, out);
            stack.pop();
        }
    }
    let (mut out, mut seen) = (Vec::new(), BTreeSet::new());
    for len in 2..=max_edges {
        extend(alphabet, len, &mut Vec::new(), &mut seen, &mut out);
    }
    out
}

/// Asserts the two walks agree, naming the first differing cycle.
fn assert_walks_agree(alphabet: &[Edge], max_edges: usize) {
    let want = reference_cycles(alphabet, max_edges);
    let got = enumerate_cycles(alphabet, max_edges);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(
            w.edges(),
            g.edges(),
            "cycle #{i} differs (reference {}, canonical walk {})",
            reference_name(w),
            reference_name(g)
        );
    }
    assert_eq!(want.len(), got.len(), "cycle counts differ");
}

/// Fisher–Yates over a splitmix64 stream: a fixed permutation per seed.
fn shuffled(alphabet: &[Edge], mut seed: u64) -> Vec<Edge> {
    let mut next = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v = alphabet.to_vec();
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[test]
fn reversed_small_alphabet() {
    let mut alphabet = Edge::small_alphabet();
    alphabet.reverse();
    assert_walks_agree(&alphabet, 5);
}

#[test]
fn shuffled_full_alphabets() {
    let full = Edge::full_alphabet();
    for seed in [1, 2, 3] {
        let alphabet = shuffled(&full, seed);
        assert_ne!(alphabet, full, "seed {seed} left the alphabet in order");
        assert_walks_agree(&alphabet, 4);
    }
}

#[test]
fn repeated_edges_do_not_duplicate_cycles() {
    let small = Edge::small_alphabet();
    let mut alphabet = small.clone();
    alphabet.push(Edge::Rfe);
    alphabet.insert(
        1,
        Edge::Po {
            same_loc: false,
            from: Dir::W,
            to: Dir::R,
        },
    );
    assert_walks_agree(&alphabet, 4);
    let cycles = enumerate_cycles(&alphabet, 4);
    let names: BTreeSet<String> = cycles.iter().map(Cycle::name).collect();
    assert_eq!(
        names.len(),
        cycles.len(),
        "a repeated edge duplicated a cycle"
    );
    // Each edge counts at its first position: the trailing `Rfe` changes
    // nothing, and the early copy of `PodWR` reorders cycles but adds none.
    assert_eq!(cycles.len(), enumerate_cycles(&small, 4).len());
}

#[test]
fn names_match_the_string_vector_definition() {
    let cfg = GenConfig::paper();
    for cycle in cfg.cycles() {
        assert_eq!(cycle.name(), reference_name(&cycle));
    }
}
