//! The campaign engine re-driven one layer call at a time, with a span
//! around each call.
//!
//! This mirrors `weakgpu_harness::campaign::run_campaign_with`: compile
//! each distinct `(test, chip)` once, split every cell into the same
//! seed-derived chunks, and let a pool of workers drain one shared chunk
//! queue. The chunk schedule is not public, so it is restated here; the
//! output checks compare this replica's histograms with the engine's bit
//! for bit, which is what keeps the restatement honest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use weakgpu_harness::{CellSpec, Histogram, TestReport, STREAM_CHUNKS};
use weakgpu_sim::chip::{Chip, RunWeights};
use weakgpu_sim::machine::{MachineState, ObsCounts, Simulator};

use crate::trace::{Recorder, NO_ID};

/// Per-chunk iteration counts of a cell (the engine's split).
fn chunk_sizes(iterations: usize) -> Vec<usize> {
    let n = iterations.min(STREAM_CHUNKS);
    if n == 0 {
        return Vec::new();
    }
    let (base, rem) = (iterations / n, iterations % n);
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// RNG seed of chunk `idx` of a cell seeded `seed` (the engine's rule).
fn chunk_seed(seed: u64, idx: usize) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1))
}

struct WorkItem {
    cell: usize,
    len: usize,
    seed: u64,
}

/// The result of a traced campaign: one report per cell in cell order,
/// and the finished recorder of each worker thread.
pub struct Traced {
    /// Reports in cell order.
    pub reports: Vec<TestReport>,
    /// One recorder per worker, numbered from 1.
    pub workers: Vec<Recorder>,
}

/// Runs `cells` on `workers` threads, recording compile and planning
/// spans on `main` and run/merge spans on each worker's own recorder.
/// `on_cell(recorder, cell, report)` runs on the worker that finished
/// the cell, so its spans land in that worker's trace.
///
/// # Errors
///
/// Describes the first compile or run error.
pub fn run<F>(
    cells: &[CellSpec],
    workers: usize,
    main: &mut Recorder,
    on_cell: F,
) -> Result<Traced, String>
where
    F: Fn(&mut Recorder, usize, &TestReport) + Sync,
{
    let mut sims: Vec<Simulator> = Vec::new();
    let mut sim_rep: Vec<usize> = Vec::new();
    let mut by_key: HashMap<(&str, Chip), Vec<usize>> = HashMap::new();
    let mut sim_of_cell = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let bucket = by_key.entry((cell.test.name(), cell.chip)).or_default();
        let idx = match bucket
            .iter()
            .copied()
            .find(|&s| cells[sim_rep[s]].test == cell.test)
        {
            Some(s) => s,
            None => {
                let sim = main
                    .span("sim.compile", i as u64, |_| {
                        Simulator::compile(&cell.test, cell.chip)
                    })
                    .map_err(|e| format!("{}: compile error: {e}", cell.test.name()))?;
                main.count("sim.compiles", 1);
                sims.push(sim);
                sim_rep.push(i);
                bucket.push(sims.len() - 1);
                sims.len() - 1
            }
        };
        sim_of_cell.push(idx);
    }

    let (weights, items, accs) = main.span("campaign.plan", NO_ID, |_| {
        let weights: Vec<RunWeights> = cells
            .iter()
            .map(|c| c.chip.profile().weights(&c.incantations))
            .collect();
        let mut items = Vec::new();
        let accs: Vec<(Mutex<Histogram>, AtomicUsize)> = cells
            .iter()
            .enumerate()
            .map(|(ci, cell)| {
                let sizes = chunk_sizes(cell.iterations);
                for (k, &len) in sizes.iter().enumerate() {
                    items.push(WorkItem {
                        cell: ci,
                        len,
                        seed: chunk_seed(cell.seed, k),
                    });
                }
                (Mutex::new(Histogram::new()), AtomicUsize::new(sizes.len()))
            })
            .collect();
        (weights, items, accs)
    });
    if cells.iter().any(|c| c.iterations == 0) {
        return Err("zero-iteration cells are not part of any workload".to_owned());
    }

    let results: Vec<Mutex<Option<TestReport>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);
    let worker_count = workers.max(1).min(items.len().max(1));
    let epoch_source = main.fork(0);

    let recorders = main.span("campaign.pool", NO_ID, |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..worker_count)
                .map(|w| {
                    let mut rec = epoch_source.fork(w + 1);
                    let (items, weights, accs, results) = (&items, &weights, &accs, &results);
                    let (sims, sim_of_cell, cursor, abort, error, on_cell) =
                        (&sims, &sim_of_cell, &cursor, &abort, &error, &on_cell);
                    scope.spawn(move || {
                        rec.span("campaign.worker", NO_ID, |rec| {
                            let mut cached: Option<(usize, MachineState)> = None;
                            let mut counts = ObsCounts::new();
                            loop {
                                if abort.load(Ordering::Relaxed) {
                                    break;
                                }
                                let Some(item) = items.get(cursor.fetch_add(1, Ordering::Relaxed))
                                else {
                                    break;
                                };
                                let cell = &cells[item.cell];
                                let si = sim_of_cell[item.cell];
                                let sim = &sims[si];
                                if !matches!(&cached, Some((idx, _)) if *idx == si) {
                                    cached = Some((si, sim.new_state()));
                                }
                                let (_, state) = cached.as_mut().expect("just ensured");
                                let mut rng = SmallRng::seed_from_u64(item.seed);
                                counts.clear();
                                let ran = rec.span("sim.run", item.cell as u64, |_| {
                                    sim.run_batch(
                                        item.len,
                                        &weights[item.cell],
                                        cell.incantations.thread_rand,
                                        &mut rng,
                                        state,
                                        &mut counts,
                                    )
                                });
                                if let Err(e) = ran {
                                    error.lock().expect("no poisoned locks").get_or_insert(
                                        format!("{}: run error: {e}", cell.test.name()),
                                    );
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                                rec.count("sim.runs", item.len as u64);
                                rec.count("campaign.chunks", 1);
                                // The histogram merge gets no span of its
                                // own: a span per chunk costs as much as
                                // the merge, and the worker's self time
                                // already counts it as campaign overhead.
                                let (hist, remaining) = &accs[item.cell];
                                {
                                    let mut h = hist.lock().expect("no poisoned locks");
                                    for (obs, n) in counts.iter() {
                                        h.add(sim.outcome_from_obs(obs), n);
                                    }
                                }
                                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    let histogram = std::mem::take(
                                        &mut *hist.lock().expect("no poisoned locks"),
                                    );
                                    let witnesses = histogram.witnesses(cell.test.cond());
                                    let report = TestReport {
                                        test: cell.test.name().to_owned(),
                                        chip: cell.chip,
                                        incantations: cell.incantations,
                                        histogram,
                                        witnesses,
                                    };
                                    on_cell(rec, item.cell, &report);
                                    *results[item.cell].lock().expect("no poisoned locks") =
                                        Some(report);
                                }
                            }
                        });
                        rec
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced worker panicked"))
                .collect::<Vec<Recorder>>()
        })
    });

    if let Some(e) = error.into_inner().expect("no poisoned locks") {
        return Err(e);
    }
    let reports = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned locks")
                .ok_or_else(|| "a cell never completed".to_owned())
        })
        .collect::<Result<_, _>>()?;
    Ok(Traced {
        reports,
        workers: recorders,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_iterations() {
        for n in [1usize, 63, 64, 65, 200, 10_000] {
            let sizes = chunk_sizes(n);
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.len() <= STREAM_CHUNKS);
        }
    }
}
