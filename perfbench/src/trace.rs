//! In-memory span recording for the traced pass.
//!
//! Each thread owns a [`Recorder`], so recording never takes a lock.
//! A span has a name, a start, an end, its parent (the enclosing span
//! on the same thread) and the cell or request it served. Spans stay in
//! memory until the run ends; [`Trace::write_tsv`] then writes them
//! out in one go.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Id of spans that serve no single cell or request.
pub const NO_ID: u64 = u64::MAX;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `sim.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Cell or request id, or [`NO_ID`].
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span list and counters of one thread.
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    peaks: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder for thread number `thread`, timing from `epoch`.
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            peaks: BTreeMap::new(),
        }
    }

    /// An empty recorder for thread number `thread` sharing this
    /// recorder's epoch, so spans of all threads share one time axis.
    pub fn fork(&self, thread: usize) -> Recorder {
        Recorder::new(self.epoch, thread)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for cell or request `id`.
    /// Spans opened inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Raises the high-water mark `name` to at least `v`.
    pub fn peak(&mut self, name: &'static str, v: u64) {
        let p = self.peaks.entry(name).or_default();
        *p = (*p).max(v);
    }
}

/// The merged spans and counters of every thread of one traced pass.
#[derive(Default)]
pub struct Trace {
    /// `(thread, spans)` per recorder.
    threads: Vec<(usize, Vec<Span>)>,
    counters: BTreeMap<&'static str, u64>,
    peaks: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Merges finished recorders.
    pub fn merge(recorders: Vec<Recorder>) -> Trace {
        let mut trace = Trace::default();
        for r in recorders {
            debug_assert!(r.stack.is_empty(), "span left open");
            for (name, n) in r.counters {
                *trace.counters.entry(name).or_default() += n;
            }
            for (name, v) in r.peaks {
                let p = trace.peaks.entry(name).or_default();
                *p = (*p).max(v);
            }
            trace.threads.push((r.thread, r.spans));
        }
        trace
    }

    /// Counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// High-water mark `name` (0 if never raised).
    pub fn peak(&self, name: &str) -> u64 {
        self.peaks.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed self time per span name, in seconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.duration_ns();
                }
            }
            for (s, c) in spans.iter().zip(child_ns) {
                *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(c) as f64 * 1e-9;
            }
        }
        out
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flat_map(|(_, s)| s.iter())
    }

    /// Writes the spans as tab-separated lines under a header: thread,
    /// index within the thread, name, start and end in nanoseconds since
    /// the pass began, parent index within the thread (`-` for none) and
    /// cell or request id (`-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tindex\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
                let id = if s.id == NO_ID {
                    "-".to_owned()
                } else {
                    s.id.to_string()
                };
                writeln!(
                    out,
                    "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{id}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(Instant::now(), 0);
        r.span("outer", NO_ID, |r| {
            r.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let t = Trace::merge(vec![r]);
        let own = t.self_s();
        assert!(own["inner"] >= 0.005);
        assert!(own["outer"] < own["inner"]);
        assert!((t.total_s("outer") - own["outer"] - own["inner"]).abs() < 1e-9);
    }
}
