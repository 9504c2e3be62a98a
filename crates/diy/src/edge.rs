//! The relaxation-edge alphabet.
//!
//! Edge names follow the `diy` convention: `Rfe`/`Fre`/`Coe` for external
//! communication, `Po{s,d}{R,W}{R,W}` for program order over the same (`s`)
//! or different (`d`) locations, `Membar.{cta,gl,sys}d{R,W}{R,W}` for
//! fenced program order, and `Dp{Addr,Data,Ctrl}d{R,W}` for manufactured
//! dependencies.

use std::fmt;

use weakgpu_litmus::FenceScope;

/// Direction of a memory event: read or write.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    /// Read.
    R,
    /// Write.
    W,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::R => write!(f, "R"),
            Dir::W => write!(f, "W"),
        }
    }
}

/// Kinds of manufactured dependency (paper Sec. 4.5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DepKind {
    /// Address dependency (and-high-bit into the address register).
    Addr,
    /// Data dependency (and-high-bit into the stored value).
    Data,
    /// Control dependency (setp + predicated target).
    Ctrl,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Addr => write!(f, "Addr"),
            DepKind::Data => write!(f, "Data"),
            DepKind::Ctrl => write!(f, "Ctrl"),
        }
    }
}

/// One relaxation edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Edge {
    /// External read-from: a write, read by another thread.
    Rfe,
    /// External from-read: a read, overwritten by another thread's write.
    Fre,
    /// External coherence: a write, coherence-followed by another thread's
    /// write.
    Coe,
    /// Program order between two accesses of one thread.
    Po {
        /// Same (`true`) or different (`false`) location.
        same_loc: bool,
        /// Direction of the source access.
        from: Dir,
        /// Direction of the target access.
        to: Dir,
    },
    /// Program order with a fence in between (always different locations).
    Fenced {
        /// Fence scope.
        scope: FenceScope,
        /// Direction of the source access.
        from: Dir,
        /// Direction of the target access.
        to: Dir,
    },
    /// A manufactured dependency from a read to a later access of a
    /// different location.
    Dp {
        /// Dependency kind.
        dep: DepKind,
        /// Direction of the target access (data dependencies target
        /// writes only).
        to: Dir,
    },
}

impl Edge {
    /// Direction of the event this edge leaves.
    pub fn from_dir(self) -> Dir {
        match self {
            Edge::Rfe | Edge::Coe => Dir::W,
            Edge::Fre => Dir::R,
            Edge::Po { from, .. } | Edge::Fenced { from, .. } => from,
            Edge::Dp { .. } => Dir::R,
        }
    }

    /// Direction of the event this edge enters.
    pub fn to_dir(self) -> Dir {
        match self {
            Edge::Rfe => Dir::R,
            Edge::Fre | Edge::Coe => Dir::W,
            Edge::Po { to, .. } | Edge::Fenced { to, .. } => to,
            Edge::Dp { to, .. } => to,
        }
    }

    /// `true` for communication edges crossing threads.
    pub fn is_external(self) -> bool {
        matches!(self, Edge::Rfe | Edge::Fre | Edge::Coe)
    }

    /// `true` if source and target access the same location.
    pub fn same_loc(self) -> bool {
        match self {
            Edge::Rfe | Edge::Fre | Edge::Coe => true,
            Edge::Po { same_loc, .. } => same_loc,
            Edge::Fenced { .. } | Edge::Dp { .. } => false,
        }
    }

    /// The canonical `diy`-style name.
    pub fn name(self) -> &'static str {
        // Name tables are indexed by direction pair: RR, RW, WR, WW.
        let pair = |from: Dir, to: Dir| 2 * from as usize + to as usize;
        match self {
            Edge::Rfe => "Rfe",
            Edge::Fre => "Fre",
            Edge::Coe => "Coe",
            Edge::Po {
                same_loc: false,
                from,
                to,
            } => ["PodRR", "PodRW", "PodWR", "PodWW"][pair(from, to)],
            Edge::Po {
                same_loc: true,
                from,
                to,
            } => ["PosRR", "PosRW", "PosWR", "PosWW"][pair(from, to)],
            Edge::Fenced { scope, from, to } => {
                let names = match scope {
                    FenceScope::Cta => [
                        "Membar.ctadRR",
                        "Membar.ctadRW",
                        "Membar.ctadWR",
                        "Membar.ctadWW",
                    ],
                    FenceScope::Gl => [
                        "Membar.gldRR",
                        "Membar.gldRW",
                        "Membar.gldWR",
                        "Membar.gldWW",
                    ],
                    FenceScope::Sys => [
                        "Membar.sysdRR",
                        "Membar.sysdRW",
                        "Membar.sysdWR",
                        "Membar.sysdWW",
                    ],
                };
                names[pair(from, to)]
            }
            Edge::Dp { dep, to } => match (dep, to) {
                (DepKind::Addr, Dir::R) => "DpAddrdR",
                (DepKind::Addr, Dir::W) => "DpAddrdW",
                (DepKind::Data, Dir::R) => "DpDatadR",
                (DepKind::Data, Dir::W) => "DpDatadW",
                (DepKind::Ctrl, Dir::R) => "DpCtrldR",
                (DepKind::Ctrl, Dir::W) => "DpCtrldW",
            },
        }
    }

    /// The default alphabet used for paper-scale generation: all external
    /// edges, all valid po edges, fenced edges at every scope, and
    /// dependency edges.
    pub fn full_alphabet() -> Vec<Edge> {
        let mut v = vec![Edge::Rfe, Edge::Fre, Edge::Coe];
        for from in [Dir::R, Dir::W] {
            for to in [Dir::R, Dir::W] {
                v.push(Edge::Po {
                    same_loc: false,
                    from,
                    to,
                });
                for scope in FenceScope::ALL {
                    v.push(Edge::Fenced { scope, from, to });
                }
            }
        }
        // Same-location po edges: the interesting ones are the coherence
        // shapes; `PosRR` is the load-load hazard.
        for (from, to) in [
            (Dir::R, Dir::R),
            (Dir::W, Dir::W),
            (Dir::R, Dir::W),
            (Dir::W, Dir::R),
        ] {
            v.push(Edge::Po {
                same_loc: true,
                from,
                to,
            });
        }
        for dep in [DepKind::Addr, DepKind::Ctrl] {
            for to in [Dir::R, Dir::W] {
                v.push(Edge::Dp { dep, to });
            }
        }
        v.push(Edge::Dp {
            dep: DepKind::Data,
            to: Dir::W,
        });
        v
    }

    /// A compact alphabet for quick runs: external edges, different-
    /// location po, gl-fenced po and the same-location read-read hazard.
    pub fn small_alphabet() -> Vec<Edge> {
        let mut v = vec![Edge::Rfe, Edge::Fre, Edge::Coe];
        for from in [Dir::R, Dir::W] {
            for to in [Dir::R, Dir::W] {
                v.push(Edge::Po {
                    same_loc: false,
                    from,
                    to,
                });
                v.push(Edge::Fenced {
                    scope: FenceScope::Gl,
                    from,
                    to,
                });
            }
        }
        v.push(Edge::Po {
            same_loc: true,
            from: Dir::R,
            to: Dir::R,
        });
        v
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions() {
        assert_eq!(Edge::Rfe.from_dir(), Dir::W);
        assert_eq!(Edge::Rfe.to_dir(), Dir::R);
        assert_eq!(Edge::Fre.from_dir(), Dir::R);
        assert_eq!(Edge::Fre.to_dir(), Dir::W);
        assert_eq!(Edge::Coe.from_dir(), Dir::W);
        let po = Edge::Po {
            same_loc: false,
            from: Dir::W,
            to: Dir::R,
        };
        assert_eq!(po.from_dir(), Dir::W);
        assert_eq!(po.to_dir(), Dir::R);
        assert_eq!(
            Edge::Dp {
                dep: DepKind::Addr,
                to: Dir::R
            }
            .from_dir(),
            Dir::R
        );
    }

    #[test]
    fn names_follow_diy_convention() {
        assert_eq!(Edge::Rfe.name(), "Rfe");
        assert_eq!(
            Edge::Po {
                same_loc: false,
                from: Dir::W,
                to: Dir::R
            }
            .name(),
            "PodWR"
        );
        assert_eq!(
            Edge::Po {
                same_loc: true,
                from: Dir::R,
                to: Dir::R
            }
            .name(),
            "PosRR"
        );
        assert_eq!(
            Edge::Fenced {
                scope: FenceScope::Gl,
                from: Dir::W,
                to: Dir::W
            }
            .name(),
            "Membar.gldWW"
        );
        assert_eq!(
            Edge::Dp {
                dep: DepKind::Addr,
                to: Dir::R
            }
            .name(),
            "DpAddrdR"
        );
    }

    #[test]
    fn name_table_matches_the_naming_scheme() {
        let dirs = [Dir::R, Dir::W];
        for from in dirs {
            for to in dirs {
                for same_loc in [false, true] {
                    let s = if same_loc { "s" } else { "d" };
                    let e = Edge::Po { same_loc, from, to };
                    assert_eq!(e.name(), format!("Po{s}{from}{to}"));
                }
                for scope in FenceScope::ALL {
                    let e = Edge::Fenced { scope, from, to };
                    assert_eq!(e.name(), format!("Membar{}d{from}{to}", scope.suffix()));
                }
            }
        }
        for dep in [DepKind::Addr, DepKind::Data, DepKind::Ctrl] {
            for to in dirs {
                assert_eq!(Edge::Dp { dep, to }.name(), format!("Dp{dep}d{to}"));
            }
        }
    }

    #[test]
    fn alphabets() {
        let full = Edge::full_alphabet();
        let small = Edge::small_alphabet();
        assert!(full.len() > small.len());
        assert!(small.iter().all(|e| full.contains(e)));
        // No duplicates.
        let mut f = full.clone();
        f.sort_unstable();
        f.dedup();
        assert_eq!(f.len(), full.len());
    }

    #[test]
    fn externality_and_location() {
        assert!(Edge::Rfe.is_external() && Edge::Rfe.same_loc());
        assert!(!Edge::Po {
            same_loc: false,
            from: Dir::R,
            to: Dir::R
        }
        .is_external());
        assert!(!Edge::Dp {
            dep: DepKind::Ctrl,
            to: Dir::W
        }
        .same_loc());
    }
}
