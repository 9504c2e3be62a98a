//! Enumeration of relaxation cycles.
//!
//! A cycle is a sequence of edges where each edge's target direction
//! matches the next edge's source direction (cyclically), at least two
//! edges are external (so ≥ 2 threads arise), and location constraints
//! are satisfiable. Cycles are canonicalised up to rotation, and rotated
//! so that the walk starts at the beginning of a thread (i.e. the final
//! edge is external).
//!
//! [`enumerate_cycles`] walks each rotation class once: it visits only
//! sequences of alphabet positions that are the least of their rotations
//! (necklaces, in combinatorial terms), in lexicographic order per
//! length. That is exactly the order in which an exhaustive walk over
//! every position sequence first meets each class, so the output — order
//! and stored rotation — is the one such a walk, deduplicating by name,
//! produces.

use crate::edge::Edge;

/// A well-formed relaxation cycle.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cycle {
    edges: Vec<Edge>,
}

impl Cycle {
    /// Wraps an edge sequence as a cycle after validating it.
    ///
    /// Returns `None` if directions do not chain, fewer than two edges are
    /// external, or the location constraints are contradictory.
    pub fn new(edges: Vec<Edge>) -> Option<Cycle> {
        if edges.is_empty() || !directions_chain(&edges) {
            return None;
        }
        // At least two external edges: communication must leave the first
        // thread and come back, otherwise the "external" edge would relate
        // events of a single thread.
        if edges.iter().filter(|e| e.is_external()).count() < 2 {
            return None;
        }
        if !locations_consistent(&edges) {
            return None;
        }
        // Rotate so the final edge is external: the walk then starts at a
        // thread boundary. Prefer ending on a read-from/from-read edge —
        // a trailing Coe wraps a coherence constraint around the cycle,
        // which the synthesiser pins less directly.
        let last_ext = edges
            .iter()
            .rposition(|e| matches!(e, Edge::Rfe | Edge::Fre))
            .or_else(|| edges.iter().rposition(|e| e.is_external()))?;
        let mut rotated = edges;
        let shift = (last_ext + 1) % rotated.len();
        rotated.rotate_left(shift);
        Some(Cycle { edges: rotated })
    }

    /// The edges in walk order (final edge external).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges (= number of events).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Cycles are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of threads the synthesised test will have.
    pub fn num_threads(&self) -> usize {
        self.edges.iter().filter(|e| e.is_external()).count()
    }

    /// The canonical name: edge names joined by `-` over the
    /// lexicographically-least rotation that ends in an external edge
    /// (rotations compare edge name by edge name).
    pub fn name(&self) -> String {
        let n = self.edges.len();
        let rotation = |r: usize| (0..n).map(move |i| self.edges[(r + i) % n].name());
        let best = (0..n)
            .filter(|&r| self.edges[(r + n - 1) % n].is_external())
            .min_by(|&a, &b| rotation(a).cmp(rotation(b)))
            .expect("cycles contain an external edge");
        rotation(best).collect::<Vec<_>>().join("-")
    }
}

fn directions_chain(edges: &[Edge]) -> bool {
    let n = edges.len();
    (0..n).all(|i| edges[i].to_dir() == edges[(i + 1) % n].from_dir())
}

/// Checks location constraints with union-find: same-location edges merge
/// endpoint classes; different-location edges must separate them.
fn locations_consistent(edges: &[Edge]) -> bool {
    let n = edges.len();
    // Event i is the target of edge i-1 and source of edge i; classes over
    // events 0..n where edge i links event i to event (i+1) % n.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for (i, e) in edges.iter().enumerate() {
        if e.same_loc() {
            let (a, b) = (find(&mut parent, i), find(&mut parent, (i + 1) % n));
            parent[a] = b;
        }
    }
    for (i, e) in edges.iter().enumerate() {
        if !e.same_loc() && find(&mut parent, i) == find(&mut parent, (i + 1) % n) {
            return false;
        }
    }
    true
}

/// Enumerates all cycles over `alphabet` with between 2 and `max_edges`
/// edges, deduplicated up to rotation.
///
/// Cycles come shortest first; within a length, in lexicographic order of
/// their least rotation as a sequence of alphabet positions (a repeated
/// edge counts at its first position). Each cycle is that least rotation
/// passed through [`Cycle::new`].
///
/// The walk is the Fredricksen–Kessler–Maiorana necklace walk restricted
/// to sequences whose directions chain: each position is at least the one
/// a period back, so only prefixes of least rotations are extended, and a
/// full-length sequence is a least rotation exactly when its period
/// divides its length. Prefixes that cannot reach two external edges in
/// the positions left are cut.
pub fn enumerate_cycles(alphabet: &[Edge], max_edges: usize) -> Vec<Cycle> {
    let mut edges: Vec<Edge> = Vec::with_capacity(alphabet.len());
    for &e in alphabet {
        if !edges.contains(&e) {
            edges.push(e);
        }
    }
    let mut out = Vec::new();
    // A least rotation starts at its smallest position, which is at or
    // before one of its external edges.
    let Some(last_external) = edges.iter().rposition(|e| e.is_external()) else {
        return out;
    };
    let mut seq = Vec::with_capacity(max_edges);
    for len in 2..=max_edges {
        for first in 0..=last_external {
            seq.push(first);
            extend(&edges, len, &mut seq, 1, &mut out);
            seq.pop();
        }
    }
    out
}

/// Extends `seq`, positions into `edges` that form a prefix of a least
/// rotation with period `period`, to every cycle of length `len`.
fn extend(edges: &[Edge], len: usize, seq: &mut Vec<usize>, period: usize, out: &mut Vec<Cycle>) {
    let t = seq.len();
    if t == len {
        let closes = edges[seq[t - 1]].to_dir() == edges[seq[0]].from_dir();
        if len.is_multiple_of(period) && closes {
            if let Some(cycle) = Cycle::new(seq.iter().map(|&i| edges[i]).collect()) {
                out.push(cycle);
            }
        }
        return;
    }
    let externals = seq.iter().filter(|&&i| edges[i].is_external()).count();
    if externals + (len - t) < 2 {
        return;
    }
    let prev = edges[seq[t - 1]];
    let floor = seq[t - period];
    for (i, &e) in edges.iter().enumerate().skip(floor) {
        if e.from_dir() != prev.to_dir() {
            continue;
        }
        // Repeating the position a period back keeps the period; a larger
        // position makes the whole prefix one period.
        let period = if i == floor { period } else { t + 1 };
        seq.push(i);
        extend(edges, len, seq, period, out);
        seq.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Dir;

    fn pod(from: Dir, to: Dir) -> Edge {
        Edge::Po {
            same_loc: false,
            from,
            to,
        }
    }

    #[test]
    fn mp_cycle_is_valid() {
        // mp: W x; W y (po) — rfe — R y; R x (po) — fre back.
        let c = Cycle::new(vec![
            pod(Dir::W, Dir::W),
            Edge::Rfe,
            pod(Dir::R, Dir::R),
            Edge::Fre,
        ])
        .expect("mp cycle");
        assert_eq!(c.num_threads(), 2);
        assert_eq!(c.len(), 4);
        // Rotated to end on an external edge.
        assert!(c.edges().last().unwrap().is_external());
    }

    #[test]
    fn direction_mismatch_rejected() {
        // Rfe ends at R, Coe starts at W: mismatch.
        assert!(Cycle::new(vec![Edge::Rfe, Edge::Coe]).is_none());
    }

    #[test]
    fn internal_only_rejected() {
        assert!(Cycle::new(vec![pod(Dir::W, Dir::W), pod(Dir::W, Dir::W)]).is_none());
    }

    #[test]
    fn contradictory_locations_rejected() {
        // Rfe (same loc) then Fre (same loc) closing a 2-cycle is fine,
        // but a 2-cycle of Rfe with PodRW (different loc) is impossible:
        // the two events must be both same and different location.
        assert!(Cycle::new(vec![Edge::Rfe, pod(Dir::R, Dir::W)]).is_none());
        assert!(Cycle::new(vec![Edge::Rfe, Edge::Fre]).is_some());
    }

    #[test]
    fn corr_cycle_with_same_loc_po() {
        // coRR: W x — rfe → R x — pos(RR) → R x — fre → W x.
        let c = Cycle::new(vec![
            Edge::Rfe,
            Edge::Po {
                same_loc: true,
                from: Dir::R,
                to: Dir::R,
            },
            Edge::Fre,
        ])
        .expect("coRR cycle");
        assert_eq!(c.num_threads(), 2);
    }

    #[test]
    fn rotation_deduplication() {
        let cycles = enumerate_cycles(&[Edge::Rfe, Edge::Fre], 2);
        // Rfe-Fre and Fre-Rfe are the same cycle up to rotation.
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].name(), "Fre-Rfe");
    }

    #[test]
    fn enumeration_counts_grow() {
        let small = Edge::small_alphabet();
        let c3 = enumerate_cycles(&small, 3);
        let c4 = enumerate_cycles(&small, 4);
        assert!(!c3.is_empty());
        assert!(c4.len() > c3.len());
        // All enumerated cycles are valid and distinct by name.
        let mut names: Vec<String> = c4.iter().map(Cycle::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c4.len());
    }

    #[test]
    fn sb_cycle_enumerated() {
        let cycles = enumerate_cycles(&Edge::small_alphabet(), 4);
        // sb: PodWR Fre PodWR Fre.
        assert!(
            cycles.iter().any(|c| c.name() == "PodWR-Fre-PodWR-Fre"),
            "sb cycle missing"
        );
        // lb: PodRW Rfe PodRW Rfe.
        assert!(
            cycles.iter().any(|c| c.name() == "PodRW-Rfe-PodRW-Rfe"),
            "lb cycle missing"
        );
    }
}
