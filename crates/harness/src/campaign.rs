//! The campaign engine: many `(test, chip, incantations)` cells — the
//! paper's unit of measurement, one `obs/100k` number each — scheduled
//! over a single shared worker pool.
//!
//! Where [`run_test`](crate::runner::run_test) spawns a thread scope per
//! cell, a campaign compiles every distinct `(test, chip)` pair once,
//! splits each cell into the same machine-independent seed-derived chunks
//! `run_test` uses (see [`runner::STREAM_CHUNKS`](crate::runner)), and
//! lets one pool of workers drain the whole chunk queue. Workers keep a
//! reusable [`MachineState`] per simulator, so iterations are amortised:
//! no per-run allocation, no per-run `FinalExpr` cloning.
//!
//! A chunk records raw observation vectors ([`ObsCounts`]) and merges
//! them into its cell's counts. Outcomes are built once per cell, not
//! once per chunk: when a cell's last chunk lands, each distinct
//! observation vector becomes one [`Outcome`] and one histogram entry.
//!
//! Determinism: each chunk's RNG stream is a pure function of the cell's
//! seed and the chunk index, and chunk counts are merged by commutative
//! addition — so a campaign's reports are bit-identical for a fixed seed
//! regardless of worker count, scheduling, or host machine, and identical
//! to running each cell alone through `run_test`.
//!
//! [`Outcome`]: weakgpu_litmus::Outcome
//!
//! Progress callbacks run on the worker threads. A callback that judges
//! cells against an axiomatic model (as the sweep's does) should keep
//! one `weakgpu_axiom::plan::EvalContext` per worker — e.g. in a
//! `thread_local!` — so repeated verdicts reuse one evaluation arena;
//! see `crate::sweep` for the pattern.
//!
//! ```
//! use weakgpu_harness::campaign::{run_campaign, CampaignConfig, CellSpec};
//! use weakgpu_litmus::corpus;
//! use weakgpu_sim::chip::{Chip, Incantations};
//!
//! let cells = vec![
//!     CellSpec::new(corpus::corr(), Chip::GtxTitan).iterations(2_000),
//!     CellSpec::new(corpus::corr(), Chip::Gtx280).iterations(2_000),
//! ];
//! let reports = run_campaign(&cells, &CampaignConfig::default()).unwrap();
//! assert!(reports[0].witnesses > 0); // Kepler coRR (Fig. 1)
//! assert_eq!(reports[1].witnesses, 0); // GTX 280 stays strong
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_litmus::{LitmusTest, ThreadScope};
use weakgpu_sim::chip::{Chip, Incantations, RunWeights};
use weakgpu_sim::machine::{MachineState, ObsCounts, Simulator};

use crate::histogram::Histogram;
use crate::runner::{chunk_seed, chunk_sizes, HarnessError, RunConfig, TestReport};

/// The paper's "most effective incantations" for a test's placement:
/// the best inter-CTA column for inter-CTA tests, everything on for
/// intra-CTA (the choice behind every figure's default column).
pub fn default_incantations(test: &LitmusTest) -> Incantations {
    match test.thread_scope() {
        Some(ThreadScope::InterCta) => Incantations::best_inter_cta(),
        _ => Incantations::all_on(),
    }
}

/// One campaign cell: a litmus test bound to a chip and incantation
/// combination, with its own iteration count and base seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellSpec {
    /// The litmus test to run.
    pub test: LitmusTest,
    /// The chip profile to run it on.
    pub chip: Chip,
    /// Incantation combination.
    pub incantations: Incantations,
    /// Number of runs (the paper uses 100 000 per cell).
    pub iterations: usize,
    /// Base RNG seed; chunk streams derive from it machine-independently.
    pub seed: u64,
}

impl CellSpec {
    /// A cell with the default harness configuration (100k iterations,
    /// all incantations, the default seed).
    pub fn new(test: LitmusTest, chip: Chip) -> Self {
        let d = RunConfig::default();
        CellSpec {
            test,
            chip,
            incantations: d.incantations,
            iterations: d.iterations,
            seed: d.seed,
        }
    }

    /// A cell mirroring `cfg` — running it in a campaign produces the
    /// same report `run_test(test, chip, cfg)` would.
    pub fn from_config(test: LitmusTest, chip: Chip, cfg: &RunConfig) -> Self {
        CellSpec {
            test,
            chip,
            incantations: cfg.incantations,
            iterations: cfg.iterations,
            seed: cfg.seed,
        }
    }

    /// Sets the incantation combination.
    #[must_use]
    pub fn incantations(mut self, inc: Incantations) -> Self {
        self.incantations = inc;
        self
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Campaign-wide knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CampaignConfig {
    /// Worker threads (`None` = all available cores). Affects wall-clock
    /// time only, never results.
    pub parallelism: Option<usize>,
}

impl CampaignConfig {
    /// A config with an explicit worker count.
    pub fn with_parallelism(workers: usize) -> Self {
        CampaignConfig {
            parallelism: Some(workers),
        }
    }
}

/// A chunk of one cell's iterations: the scheduling unit of the pool.
struct WorkItem {
    cell: usize,
    len: usize,
    seed: u64,
}

/// Per-cell accumulation shared between workers: the raw observation
/// counts of the cell's finished chunks.
struct CellAcc {
    counts: Mutex<ObsCounts>,
    remaining: AtomicUsize,
}

/// Runs every cell and returns one [`TestReport`] per cell, in cell
/// order. Results are bit-identical for fixed cell specs regardless of
/// `cfg.parallelism` or the host's core count.
///
/// # Errors
///
/// Returns the first compile or run error encountered; remaining work is
/// abandoned.
pub fn run_campaign(
    cells: &[CellSpec],
    cfg: &CampaignConfig,
) -> Result<Vec<TestReport>, HarnessError> {
    run_campaign_with(cells, cfg, |_, _| {})
}

/// Like [`run_campaign`], additionally invoking `progress(cell_index,
/// report)` as each cell completes — cells finish out of order, so the
/// callback must be thread-safe. The callback sees each cell exactly
/// once, before the final result vector is assembled.
///
/// # Errors
///
/// See [`run_campaign`].
pub fn run_campaign_with<F>(
    cells: &[CellSpec],
    cfg: &CampaignConfig,
    progress: F,
) -> Result<Vec<TestReport>, HarnessError>
where
    F: Fn(usize, &TestReport) + Sync,
{
    // Compile each distinct (test, chip) pair once. Cells referencing the
    // same pair (e.g. the same test at several incantation columns) share
    // one Simulator. Buckets are keyed by (name, chip) for O(cells)
    // lookup, with a structural-equality check inside the bucket so two
    // different tests that happen to share a name never share a sim.
    let mut sims: Vec<Simulator> = Vec::new();
    let mut sim_rep: Vec<usize> = Vec::new(); // cell that compiled sims[i]
    let mut by_key: HashMap<(&str, Chip), Vec<usize>> = HashMap::new();
    let mut sim_of_cell: Vec<usize> = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let bucket = by_key.entry((cell.test.name(), cell.chip)).or_default();
        let idx = match bucket
            .iter()
            .copied()
            .find(|&s| cells[sim_rep[s]].test == cell.test)
        {
            Some(s) => s,
            None => {
                sims.push(Simulator::compile(&cell.test, cell.chip)?);
                sim_rep.push(i);
                bucket.push(sims.len() - 1);
                sims.len() - 1
            }
        };
        sim_of_cell.push(idx);
    }
    let weights: Vec<RunWeights> = cells
        .iter()
        .map(|c| c.chip.profile().weights(&c.incantations))
        .collect();

    // Flatten every cell into seed-derived chunks (cell-major, so a
    // worker's cached MachineState stays hot across consecutive items).
    let mut items: Vec<WorkItem> = Vec::new();
    let accs: Vec<CellAcc> = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let sizes = chunk_sizes(cell.iterations);
            for (k, len) in sizes.iter().copied().enumerate() {
                items.push(WorkItem {
                    cell: ci,
                    len,
                    seed: chunk_seed(cell.seed, k),
                });
            }
            CellAcc {
                counts: Mutex::new(ObsCounts::new()),
                remaining: AtomicUsize::new(sizes.len()),
            }
        })
        .collect();

    let results: Vec<Mutex<Option<TestReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();

    // Zero-iteration cells have no chunks; complete them up front.
    for (ci, cell) in cells.iter().enumerate() {
        if cell.iterations == 0 {
            let report = finish_cell(cell, &sims[sim_of_cell[ci]], &ObsCounts::new());
            progress(ci, &report);
            *results[ci].lock().expect("no poisoned locks") = Some(report);
        }
    }

    let workers = cfg
        .parallelism
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(items.len().max(1));

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<HarnessError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // The worker's reusable run state, tagged with the
                // simulator it was sized for. Chunks are cell-major, so
                // this almost always hits.
                let mut cached: Option<(usize, MachineState)> = None;
                let mut counts = ObsCounts::new();
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let cell = &cells[item.cell];
                    let si = sim_of_cell[item.cell];
                    let sim = &sims[si];
                    if !matches!(&cached, Some((idx, _)) if *idx == si) {
                        cached = Some((si, sim.new_state()));
                    }
                    let (_, state) = cached.as_mut().expect("just ensured");

                    let mut rng = SmallRng::seed_from_u64(item.seed);
                    counts.clear();
                    if let Err(e) = sim.run_batch(
                        item.len,
                        &weights[item.cell],
                        cell.incantations.thread_rand,
                        &mut rng,
                        state,
                        &mut counts,
                    ) {
                        let mut slot = error.lock().expect("no poisoned locks");
                        slot.get_or_insert(HarnessError::Run(e));
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }

                    let acc = &accs[item.cell];
                    acc.counts.lock().expect("no poisoned locks").merge(&counts);
                    if acc.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let cell_counts =
                            std::mem::take(&mut *acc.counts.lock().expect("no poisoned locks"));
                        let report = finish_cell(cell, sim, &cell_counts);
                        progress(item.cell, &report);
                        *results[item.cell].lock().expect("no poisoned locks") = Some(report);
                    }
                }
            });
        }
    });

    if let Some(e) = error.into_inner().expect("no poisoned locks") {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned locks")
                .expect("every cell completed")
        })
        .collect())
}

/// Builds a finished cell's report: one outcome per distinct
/// observation vector.
fn finish_cell(cell: &CellSpec, sim: &Simulator, counts: &ObsCounts) -> TestReport {
    let mut histogram = Histogram::new();
    for (obs, n) in counts.iter() {
        histogram.add(sim.outcome_from_obs(obs), n);
    }
    let witnesses = histogram.witnesses(cell.test.cond());
    TestReport {
        test: cell.test.name().to_owned(),
        chip: cell.chip,
        incantations: cell.incantations,
        histogram,
        witnesses,
    }
}
