//! `serve-mixed`: a closed-loop, single-client verdict session through
//! `weakgpu_harness::serve`, warm-started from a cache file and saved
//! at shutdown, as `weakgpu serve --cache-file` runs it.
//!
//! Requests carry inline litmus source drawn by seed from the paper
//! family, plus some corpus names, spread over the six served models.
//! About one request in eight is the first of its shape and model (a
//! miss); the rest hit a warm entry or repeat an earlier request. With
//! the hit share that far from one half, the median falls inside the
//! hits and the 99th percentile inside the misses. No simulator runs
//! here: this is the axiomatic half, from JSON and litmus parsing to
//! enumeration, plan evaluation and cache persistence.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, Read, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use weakgpu_axiom::enumerate::{
    enumerate_executions, for_each_execution, model_outcomes_with, EnumConfig,
};
use weakgpu_axiom::plan::EvalContext;
use weakgpu_axiom::{persist, CatModel, Model, VerdictCache};
use weakgpu_diy::synth::expand;
use weakgpu_diy::{enumerate_cycles, GenConfig};
use weakgpu_front::SourceFile;
use weakgpu_harness::json::{self, Json};
use weakgpu_harness::serve::{model_by_name, serve, ServeConfig, MODEL_NAMES};
use weakgpu_litmus::{parser, LitmusTest};
use weakgpu_models::sources;

use crate::stats::{median, quantile};
use crate::trace::{Recorder, Trace, NO_ID};
use crate::{layer_split, repeat, secs, RunResult, RunSpec, Scale};

struct Size {
    family: &'static str,
    requests: usize,
    warm_keys: usize,
    /// Share of requests that are the first of their key.
    fresh_share: f64,
    /// Share of hit requests that repeat an earlier request (the rest
    /// ask for a key the warm file holds).
    repeat_share: f64,
    /// Share of fresh keys named from the corpus rather than sent inline.
    corpus_share: f64,
    /// Responses re-checked against the tree-walk reference.
    reference_sample: usize,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            family: "paper",
            requests: 3_000,
            warm_keys: 1_500,
            fresh_share: 0.12,
            repeat_share: 0.5,
            corpus_share: 0.1,
            reference_sample: 24,
        },
        Scale::Tiny => Size {
            family: "small",
            requests: 80,
            warm_keys: 20,
            fresh_share: 0.2,
            repeat_share: 0.5,
            corpus_share: 0.2,
            reference_sample: 8,
        },
    }
}

/// What a request asks for: a test (inline source or corpus name) and
/// a model.
#[derive(Debug)]
struct Key {
    test: TestRef,
    model: &'static str,
}

#[derive(Debug)]
enum TestRef {
    Inline(String),
    Corpus(String),
}

/// A session's requests: one JSON line each, and the key each asks for.
pub struct Requests {
    lines: Vec<String>,
    key_of: Vec<usize>,
    keys: Vec<Key>,
    warm_keys: usize,
}

fn request_line(id: usize, key: &Key) -> String {
    let test = match &key.test {
        TestRef::Inline(src) => format!("\"litmus\": {}", json::escape(src)),
        TestRef::Corpus(name) => format!("\"test\": {}", json::escape(name)),
    };
    format!(
        "{{\"id\": {id}, {test}, \"model\": {}}}\n",
        json::escape(key.model)
    )
}

/// Draws a session from `seed`: warm keys first (key indices
/// `0..warm_keys`), then the session's fresh keys in order of first
/// request.
fn draw(seed: u64, size: &Size, gen: &GenConfig) -> Result<Requests, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e55_1011);
    let corpus: Vec<String> = crate::corpus_tests()
        .iter()
        .map(|t| t.name().to_owned())
        .collect();
    let fresh = ((size.requests as f64 * size.fresh_share).round() as usize).max(1);
    // One test per distinct cycle, so no two keys share a shape. Only the
    // drawn cycles are synthesised: the whole family is not held, and
    // its memory does not count against the session's.
    let cycles = enumerate_cycles(&gen.alphabet, gen.max_edges);
    let mut picked = BTreeSet::new();
    let mut pick_test = |rng: &mut SmallRng| -> Result<String, String> {
        while picked.len() < cycles.len() {
            let c = rng.random_range(0..cycles.len());
            if picked.insert(c) {
                let tests = expand(&cycles[c], gen);
                if !tests.is_empty() {
                    return Ok(tests[rng.random_range(0..tests.len())].to_string());
                }
            }
        }
        Err("the family has too few cycles for this many keys".to_owned())
    };
    let mut keys: Vec<Key> = Vec::new();
    for _ in 0..size.warm_keys {
        let test = TestRef::Inline(pick_test(&mut rng)?);
        keys.push(Key {
            test,
            model: MODEL_NAMES[rng.random_range(0..MODEL_NAMES.len())],
        });
    }
    let mut corpus_left: Vec<String> = corpus.clone();
    let mut fresh_keys = Vec::new();
    for _ in 0..fresh {
        let test = if rng.random_bool(size.corpus_share) && !corpus_left.is_empty() {
            TestRef::Corpus(corpus_left.swap_remove(rng.random_range(0..corpus_left.len())))
        } else {
            TestRef::Inline(pick_test(&mut rng)?)
        };
        fresh_keys.push(Key {
            test,
            model: MODEL_NAMES[rng.random_range(0..MODEL_NAMES.len())],
        });
    }
    // Slots: `fresh` first requests among the hits, shuffled.
    let mut slots: Vec<bool> = (0..size.requests).map(|i| i < fresh).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.random_range(0..=i));
    }
    let mut key_of = Vec::with_capacity(size.requests);
    let mut issued: Vec<usize> = Vec::new();
    let mut fresh_iter = fresh_keys.into_iter();
    for is_fresh in slots {
        let k = if is_fresh {
            keys.push(fresh_iter.next().expect("one fresh key per fresh slot"));
            issued.push(keys.len() - 1);
            keys.len() - 1
        } else if !issued.is_empty() && rng.random_bool(size.repeat_share) {
            issued[rng.random_range(0..issued.len())]
        } else {
            let k = rng.random_range(0..size.warm_keys);
            issued.push(k);
            k
        };
        key_of.push(k);
    }
    let lines = key_of
        .iter()
        .enumerate()
        .map(|(id, &k)| request_line(id, &keys[k]))
        .collect();
    Ok(Requests {
        lines,
        key_of,
        keys,
        warm_keys: size.warm_keys,
    })
}

/// The client side of a closed loop: hands `serve` one request line at
/// a time, and only once the previous response has been flushed, since
/// `serve` reads the next line only after answering the last one.
struct Client<'a> {
    lines: &'a [String],
    next: usize,
    cur: &'a [u8],
    starts: Vec<Instant>,
}

impl<'a> Client<'a> {
    fn new(lines: &'a [String]) -> Self {
        Client {
            lines,
            next: 0,
            cur: &[],
            starts: Vec::with_capacity(lines.len()),
        }
    }
}

impl Read for Client<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Client<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.cur.is_empty() && self.next < self.lines.len() {
            self.starts.push(Instant::now());
            self.cur = self.lines[self.next].as_bytes();
            self.next += 1;
        }
        Ok(self.cur)
    }

    fn consume(&mut self, n: usize) {
        self.cur = &self.cur[n..];
    }
}

/// Collects responses; `serve` flushes after each one, which is when
/// the client has its answer.
#[derive(Default)]
struct Sink {
    buf: Vec<u8>,
    ends: Vec<Instant>,
    lines: Vec<String>,
}

impl Write for Sink {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.ends.push(Instant::now());
            let line = String::from_utf8(std::mem::take(&mut self.buf))
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            self.lines.push(line.trim_end().to_owned());
        }
        Ok(())
    }
}

/// Responses by request and each request's latency.
struct Session {
    responses: Vec<String>,
    latency_us: Vec<f64>,
    wall_s: f64,
}

/// Judges the warm keys through a session of their own and saves its
/// cache: the file every measured session starts from.
fn write_warm_cache(reqs: &Requests, path: &Path) -> Result<(), String> {
    let lines: Vec<String> = (0..reqs.warm_keys)
        .map(|k| request_line(k, &reqs.keys[k]))
        .collect();
    let cache = Mutex::new(VerdictCache::new());
    let mut client = Client::new(&lines);
    let mut sink = Sink::default();
    let summary = serve(&mut client, &mut sink, &ServeConfig::default(), &cache)
        .map_err(|e| e.to_string())?;
    if summary.errors > 0 {
        return Err(format!("{} warm requests failed", summary.errors));
    }
    persist::save(path, &cache.into_inner().expect("no poisoned locks")).map_err(|e| e.to_string())
}

fn untraced_session(reqs: &Requests, cache: VerdictCache, out: &Path) -> Result<Session, String> {
    let cache = Mutex::new(cache);
    let mut client = Client::new(&reqs.lines);
    let mut sink = Sink::default();
    let t0 = Instant::now();
    serve(&mut client, &mut sink, &ServeConfig::default(), &cache).map_err(|e| e.to_string())?;
    persist::save(out, &cache.into_inner().expect("no poisoned locks"))
        .map_err(|e| e.to_string())?;
    let wall_s = secs(t0);
    let latency_us = client
        .starts
        .iter()
        .zip(&sink.ends)
        .map(|(s, e)| e.duration_since(*s).as_secs_f64() * 1e6)
        .collect();
    Ok(Session {
        responses: sink.lines,
        latency_us,
        wall_s,
    })
}

struct Traced {
    responses: Vec<String>,
    wall_s: f64,
    layers: std::collections::BTreeMap<&'static str, f64>,
    trace: Trace,
}

/// The verdict fields of a response, as the client reads them.
fn verdict_fields(response: &str) -> Result<String, String> {
    let v = json::parse(response).map_err(|e| format!("bad response JSON: {e}"))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request failed: {response}"));
    }
    let field = |k: &str| {
        v.get(k)
            .map(|x| format!("{x:?}"))
            .ok_or_else(|| format!("response lacks {k}: {response}"))
    };
    Ok(format!(
        "{} {} {} {}",
        field("num_candidates")?,
        field("num_allowed")?,
        field("condition_witnessed")?,
        field("allowed_outcomes")?
    ))
}

/// The same session re-driven one layer call at a time: per request
/// the JSON parse, the litmus parse (or corpus lookup), the cache probe,
/// the judgement of a miss, the publish and the response; then the
/// cache save.
fn traced_session(reqs: &Requests, cache: VerdictCache, out: &Path) -> Result<Traced, String> {
    let cache = Mutex::new(cache);
    let enum_cfg = EnumConfig::default();
    let mut ctx = EvalContext::new();
    let corpus_index: OnceCell<HashMap<String, LitmusTest>> = OnceCell::new();
    let mut misses: Vec<LitmusTest> = Vec::new();
    // The same line transport as the untraced session, so the two walls
    // compare like for like.
    let client = Client::new(&reqs.lines);
    let mut sink = Sink::default();
    let epoch = Instant::now();
    let mut main = Recorder::new(epoch, 0);
    main.span("pass", NO_ID, |main| -> Result<(), String> {
        for (i, line) in client.lines().enumerate() {
            let line = line.map_err(|e| e.to_string())?;
            let id = i as u64;
            main.span("serve.request", id, |rec| -> Result<(), String> {
                let request = rec.span("json.parse", id, |_| json::parse(&line))?;
                let test = match request.get("litmus").and_then(Json::as_str) {
                    Some(src) => {
                        rec.count("litmus.parses", 1);
                        rec.span("litmus.parse", id, |_| {
                            parser::parse_with_diagnostics(&SourceFile::new("<request>", src))
                                .into_result()
                        })
                        .map_err(|_| format!("request {i}: litmus parse failed"))?
                    }
                    None => {
                        let name = request
                            .get("test")
                            .and_then(Json::as_str)
                            .ok_or("request names no test")?;
                        let index = rec.span("litmus.corpus", id, |_| {
                            corpus_index.get_or_init(|| {
                                crate::corpus_tests()
                                    .into_iter()
                                    .map(|t| (t.name().to_owned(), t))
                                    .collect()
                            })
                        });
                        index.get(name).cloned().ok_or("unknown corpus name")?
                    }
                };
                let model_name = request.get("model").and_then(Json::as_str).unwrap_or("ptx");
                let model = model_by_name(model_name)?;
                rec.count("cache.probes", 1);
                let probed = {
                    let mut c = rec.span("cache.lock_wait", id, |_| {
                        cache.lock().expect("no poisoned locks")
                    });
                    rec.span("cache.probe", id, |_| c.lookup(&test, &model, &enum_cfg))
                };
                let (verdict, cached) = match probed {
                    Some(v) => {
                        rec.count("cache.hits", 1);
                        (v, true)
                    }
                    None => {
                        let v = rec
                            .span("enumerate.judge", id, |_| {
                                model_outcomes_with(&test, &model, &enum_cfg, &mut ctx)
                            })
                            .map_err(|e| e.to_string())?;
                        rec.count("cache.misses", 1);
                        rec.count("enumerate.candidates", v.num_candidates as u64);
                        rec.peak("enumerate.max_candidates", v.num_candidates as u64);
                        misses.push(test.clone());
                        let mut c = rec.span("cache.lock_wait", id, |_| {
                            cache.lock().expect("no poisoned locks")
                        });
                        let before = c.len();
                        let v = rec.span("cache.publish", id, |_| c.publish(&test, &model, &enum_cfg, v));
                        if c.len() > before {
                            rec.count("enumerate.shapes", 1);
                        }
                        (v, false)
                    }
                };
                rec.span("serve.respond", id, |_| {
                    let outcomes = verdict
                        .allowed_outcomes
                        .iter()
                        .map(|o| json::escape(&o.to_string()))
                        .collect::<Vec<_>>()
                        .join(", ");
                    writeln!(
                        sink,
                        "{{\"id\": {i}, \"ok\": true, \"test\": {}, \"model\": {}, \"num_candidates\": {}, \"num_allowed\": {}, \"condition_witnessed\": {}, \"allowed_outcomes\": [{outcomes}], \"cached\": {cached}}}",
                        json::escape(test.name()),
                        json::escape(model.name()),
                        verdict.num_candidates,
                        verdict.num_allowed,
                        verdict.condition_witnessed
                    )?;
                    sink.flush()
                })
                .map_err(|e| e.to_string())
            })?;
        }
        let c = cache.lock().expect("no poisoned locks");
        main.count("cache.entries", c.len() as u64);
        main.span("persist.save", NO_ID, |_| persist::save(out, &c))
            .map_err(|e| e.to_string())
    })?;
    let wall_s = secs(epoch);
    let trace = Trace::merge(vec![main]);

    // Stream time, measured apart from the session on the same misses.
    let t = Instant::now();
    for test in &misses {
        for_each_execution(test, &enum_cfg, |_| ControlFlow::<()>::Continue(()))
            .map_err(|e| e.to_string())?;
    }
    let stream_s = secs(t);

    let mut layers = layer_split(&trace, wall_s, 0.0, 1);
    for name in [
        "litmus.parses",
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
        (judge_s - stream_s) * 1e9 / trace.counter("enumerate.candidates").max(1) as f64,
    );
    layers.insert(
        "cache.useful_miss_ratio",
        trace.counter("enumerate.shapes") as f64 / trace.counter("cache.misses").max(1) as f64,
    );
    Ok(Traced {
        responses: sink.lines,
        wall_s,
        layers,
        trace,
    })
}

/// The output checks on one session: every response is `ok` and
/// answers its request, and every repeat of a key returns the key's
/// first verdict.
///
/// # Errors
///
/// Names the first violated check.
pub fn check_session(reqs: &Requests, responses: &[String]) -> Result<(), String> {
    if responses.len() != reqs.lines.len() {
        return Err(format!(
            "{} responses to {} requests",
            responses.len(),
            reqs.lines.len()
        ));
    }
    let mut first: HashMap<usize, String> = HashMap::new();
    for (i, (response, &k)) in responses.iter().zip(&reqs.key_of).enumerate() {
        let v = json::parse(response).map_err(|e| format!("response {i}: {e}"))?;
        if v.get("id").and_then(Json::as_u64) != Some(i as u64) {
            return Err(format!("response {i} answers another request: {response}"));
        }
        let fields = verdict_fields(response).map_err(|e| format!("response {i}: {e}"))?;
        match first.get(&k) {
            Some(f) if *f != fields => {
                return Err(format!("response {i} repeats key {k} with another verdict"))
            }
            Some(_) => {}
            None => {
                first.insert(k, fields);
            }
        }
    }
    Ok(())
}

/// Re-judges a seeded sample of keys with the independent tree-walk
/// interpreter (`CatModel::allows_tree_walk` over every candidate of
/// `enumerate_executions`) and compares the allowed outcomes with the
/// session's response.
///
/// # Errors
///
/// Names the first response whose allowed outcomes differ.
pub fn check_reference(
    reqs: &Requests,
    responses: &[String],
    seed: u64,
    sample: usize,
) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7ee_3a1c);
    let corpus = crate::corpus_tests();
    for _ in 0..sample.min(responses.len()) {
        let i = rng.random_range(0..responses.len());
        let key = &reqs.keys[reqs.key_of[i]];
        let test = match &key.test {
            TestRef::Inline(src) => parser::parse(src).map_err(|e| e.to_string())?,
            TestRef::Corpus(name) => corpus
                .iter()
                .find(|t| t.name() == name)
                .cloned()
                .ok_or("unknown corpus name")?,
        };
        let model = model_by_name(key.model)?;
        let mut allowed = BTreeSet::new();
        for c in enumerate_executions(&test, &EnumConfig::default()).map_err(|e| e.to_string())? {
            if model
                .allows_tree_walk(&c.execution)
                .map_err(|e| e.to_string())?
            {
                allowed.insert(c.outcome.to_string());
            }
        }
        let v = json::parse(&responses[i]).map_err(|e| format!("response {i}: {e}"))?;
        let got: BTreeSet<String> = v
            .get("allowed_outcomes")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("response {i} has no allowed outcomes"))?
            .iter()
            .filter_map(|o| o.as_str().map(str::to_owned))
            .collect();
        if got != allowed {
            return Err(format!(
                "response {i} ({} under {}): allowed outcomes {got:?}, reference {allowed:?}",
                test.name(),
                key.model
            ));
        }
    }
    Ok(())
}

/// A tiny session for the self-test: its requests and the responses of
/// one untraced session run in `dir`.
///
/// # Errors
///
/// A session that failed outright.
pub fn tiny_session(seed: u64, dir: &Path) -> Result<(Requests, Vec<String>), String> {
    let reqs = draw(seed, &size(Scale::Tiny), &GenConfig::small())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let warm = dir.join("verdicts.wgc");
    write_warm_cache(&reqs, &warm)?;
    let cache = persist::load(&warm).map_err(|e| e.to_string())?;
    let session = untraced_session(&reqs, cache, &dir.join("session.wgc"))?;
    Ok((reqs, session.responses))
}

/// Work before the first request: model load and the cache-file load.
/// Returns the total, model and load times, and the entries loaded.
fn setup_once(warm: &Path) -> Result<(f64, f64, f64, usize), String> {
    let t0 = Instant::now();
    for (name, src) in sources::ALL {
        let model = CatModel::new(*name, src).map_err(|e| e.to_string())?;
        std::hint::black_box(&model);
    }
    let models_s = secs(t0);
    let t = Instant::now();
    let cache = persist::load(warm).map_err(|e| e.to_string())?;
    let load_s = secs(t);
    Ok((secs(t0), models_s, load_s, cache.len()))
}

/// One untraced session folded into the run's accumulators; only the
/// first session's responses are kept, as the reference for the rest.
#[derive(Default)]
struct Sessions {
    reference: Vec<String>,
    walls: Vec<f64>,
    /// Per-session latency quantiles, in microseconds: the median of
    /// the hits, the median of the misses, and the 50th and 99th
    /// percentiles of all requests.
    hit_p50: Vec<f64>,
    miss_p50: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Hits and misses of one session (every session has the same).
    hits: usize,
    misses: usize,
}

impl Sessions {
    fn absorb(&mut self, r: &mut RunResult, reqs: &Requests, s: Session) {
        let i = self.walls.len();
        if let Err(e) = check_session(reqs, &s.responses) {
            r.check(false, format!("untraced session {i}: {e}"));
        }
        if i == 0 {
            self.reference = s.responses.clone();
        }
        r.check(
            s.responses == self.reference,
            format!("untraced session {i} differs from session 0"),
        );
        r.attempted += s.responses.len() as u64;
        let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
        for (resp, &us) in s.responses.iter().zip(&s.latency_us) {
            if !resp.contains("\"ok\": true") {
                r.failed += 1;
            }
            if resp.contains("\"cached\": true") {
                hit_us.push(us);
            } else {
                miss_us.push(us);
            }
        }
        (self.hits, self.misses) = (hit_us.len(), miss_us.len());
        self.hit_p50.push(median(&hit_us));
        self.miss_p50.push(median(&miss_us));
        self.p50.push(quantile(&s.latency_us, 0.5));
        self.p99.push(quantile(&s.latency_us, 0.99));
        self.walls.push(s.wall_s);
    }
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// A session that failed outright.
pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let size = size(spec.scale);
    let gen = GenConfig::named(size.family).ok_or("unknown family")?;
    let reqs = draw(spec.seed, &size, &gen)?;
    let warm = spec.work_dir.join("verdicts.wgc");
    let out = spec.work_dir.join("session.wgc");
    write_warm_cache(&reqs, &warm)?;

    let setups = repeat(15, 500, Duration::from_millis(500), || setup_once(&warm))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let load = || persist::load(&warm).map_err(|e| e.to_string());

    let mut r = RunResult::default();
    let mut sessions = Sessions::default();
    let mut traced: Vec<Traced> = Vec::new();
    let rss = crate::measure(spec, |trace| {
        if trace {
            // Only the last traced session keeps its spans, for the span
            // file; each is checked against the untraced verdicts.
            if let Some(prev) = traced.last_mut() {
                prev.trace = Trace::default();
            }
            let mut t = traced_session(&reqs, load()?, &out)?;
            let reference = &sessions.reference;
            let same = t.responses.len() == reference.len()
                && t.responses
                    .iter()
                    .zip(reference)
                    .all(|(a, b)| verdict_fields(a).ok() == verdict_fields(b).ok());
            r.check(same, "a traced session differs from the untraced verdicts");
            t.responses = Vec::new();
            traced.push(t);
        } else {
            sessions.absorb(&mut r, &reqs, untraced_session(&reqs, load()?, &out)?);
        }
        Ok(())
    })?;

    let reference = &sessions.reference;
    if let Err(e) = check_reference(&reqs, reference, spec.seed, size.reference_sample) {
        r.check(false, e);
    }

    let walls = &sessions.walls;
    if spec.trace {
        let mut layers = crate::median_layers(traced.iter().map(|t| &t.layers));
        layers.insert(
            "models.load_s",
            median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        layers.insert(
            "persist.load_s",
            median(&setups.iter().map(|s| s.2).collect::<Vec<_>>()),
        );
        layers.insert("persist.entries", setups[0].3 as f64);
        layers.insert("serve.hit_p50_us", median(&sessions.hit_p50));
        layers.insert("serve.miss_p50_us", median(&sessions.miss_p50));
        let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        layers.insert("trace.overhead_share", traced_wall / median(walls) - 1.0);
        r.metrics = layers;
        if let Some(last) = traced.last() {
            crate::write_spans(spec, &last.trace)?;
        }
    } else {
        let rates: Vec<f64> = walls.iter().map(|w| reqs.lines.len() as f64 / w).collect();
        r.metrics.insert(
            "setup_s",
            median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        r.metrics.insert("peak_rss_mb", rss);
        r.metrics.insert(
            "ok_share",
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        );
        r.metrics.insert("work_per_s", median(&rates));
        r.metrics.insert("p50_us", median(&sessions.p50));
        r.metrics.insert("p99_us", median(&sessions.p99));
        r.notes.push(format!(
            "serve-mixed: {} requests per session over {} keys ({} warm), {} sessions, {} setups",
            reqs.lines.len(),
            reqs.keys.len(),
            reqs.warm_keys,
            walls.len(),
            setups.len()
        ));
        let n = sessions.hits + sessions.misses;
        r.notes.push(format!(
            "work_per_s = requests/s through the cache save; latencies are per-session quantiles, median over sessions; hit share {:.3}",
            sessions.hits as f64 / n.max(1) as f64
        ));
        r.notes.push(format!(
            "hit_p50_us = {} us (n={} per session); miss_p50_us = {} us (n={} per session); p50_us/p99_us over n={n} per session",
            median(&sessions.hit_p50),
            sessions.hits,
            median(&sessions.miss_p50),
            sessions.misses,
        ));
        r.notes.push(format!("session walls (s): {walls:.4?}"));
    }
    Ok(r)
}
