//! The serve phase every workload ends with: an in-process
//! [`Daemon`](hdpat::serve::Daemon) fed one connection by an open-loop
//! pacer, first cold (fresh cache directory: simulate and write to disk),
//! then warm (a restarted daemon on the same directory: read from disk,
//! then from memory).
//!
//! The connection's reader ([`PacedReader`]) releases request `i` at
//! `start + i × interval`; the writer ([`StampWriter`]) stamps each
//! response line when it arrives. A request's latency runs from its due
//! time, so a stall also charges the requests queued behind it.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use hdpat::experiments::DiskCache;
use hdpat::serve::json::Json;
use hdpat::serve::proto::{self, Request, Source};
use hdpat::serve::{Daemon, DaemonConfig};
use wsg_workloads::{BenchmarkId, Scale};

use crate::stats::{median, percentile, Mix64, Pacer};
use crate::{ms, Sink};

/// Cold/warm rounds per run, each on a fresh cache directory with its own
/// workload seeds. The p50s are taken per round and the median over rounds
/// is reported; the tails are taken over the answers of all rounds.
const ROUNDS: u64 = 3;
/// At least this many distinct cold submits per round, so that the three
/// rounds together give the 200 samples a p95 needs.
const COLD_DISTINCT: usize = 67;
/// Exact repeats mixed into each cold phase (answered from memory).
const COLD_REPEATS: usize = 3;
/// Each warm phase replays its cold request list this many times, so the
/// rounds together give the 1000 samples a p99 needs.
const WARM_REPLAYS: usize = 5;
/// A phase that has not drained after this long counts its unanswered
/// requests as failures.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Gap between warm submits: cache hits cost well under a millisecond, so
/// this is a far higher rate than any cold phase and still leaves the
/// daemon mostly idle between requests.
const WARM_INTERVAL: Duration = Duration::from_millis(2);

/// One serve phase setting: the request mix and the cold open-loop rate.
pub struct Plan {
    /// Benchmarks the mix draws from.
    pub benches: Vec<BenchmarkId>,
    /// Gap between cold submits.
    pub cold_interval: Duration,
}

/// A submit's identity: the `(benchmark, policy, seed)` it simulates.
type Key = (BenchmarkId, &'static str, u64);

/// The cold request list: every benchmark × fig14 policy pair under each of
/// `n` workload seeds drawn from `seed`, `n` just large enough for
/// `COLD_DISTINCT` distinct submits, plus `COLD_REPEATS` exact repeats
/// placed at least 30 requests after their original. The interleaving of
/// pairs is the same for every `seed`, so seeds change the simulated traces
/// but not the order of heavy and light requests.
fn cold_keys(plan: &Plan, seed: u64) -> Vec<Key> {
    let policies = wsg_bench::serving::fig14_policies();
    let pairs = plan.benches.len() * policies.len();
    let n = COLD_DISTINCT.div_ceil(pairs);
    let mut draw = Mix64::new(seed ^ 0x5e7e_c01d);
    let mut seeds: Vec<u64> = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = 1 + draw.next_u64() % 1_000_000;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    let mut keys: Vec<Key> = Vec::with_capacity(n * pairs + COLD_REPEATS);
    for &s in &seeds {
        for &b in &plan.benches {
            for &(token, _) in &policies {
                keys.push((b, token, s));
            }
        }
    }
    let mut order = Mix64::new(0x0dde_c01d);
    order.shuffle(&mut keys);
    let distinct = keys.len();
    for r in 0..COLD_REPEATS {
        let original = order.below(distinct - 30 - COLD_REPEATS);
        let key = keys[original];
        keys.insert(original + 30 + r, key);
    }
    keys
}

/// Releases one request line per `interval`, sleeping until each is due.
struct PacedReader {
    lines: Vec<String>,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    start: Instant,
    pacer: Arc<Mutex<Pacer>>,
}

impl Read for PacedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            let i = self.next;
            let due = self.start + lock(&self.pacer).due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lock(&self.pacer).release(i, self.start.elapsed());
            self.buf.clear();
            self.buf.extend_from_slice(self.lines[i].as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// Response lines received so far, each with its arrival time, plus the
/// bytes of a line still being written.
#[derive(Default)]
struct Stamped {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

/// Collects response lines, each stamped when its newline arrives.
#[derive(Clone, Default)]
struct StampWriter(Arc<Mutex<Stamped>>);

impl Write for StampWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut g = lock(&self.0);
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&g.partial).into_owned();
                g.partial.clear();
                g.lines.push((now, line));
            } else {
                g.partial.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked holding a lock")
}

/// One answered request.
struct Answer {
    latency_ms: f64,
    source: String,
    metrics: String,
}

/// What one phase produced.
struct Phase {
    answers: Vec<Option<Answer>>,
    daemon_new: Duration,
    gen_late: Duration,
    snapshot: Option<Json>,
    disk_hit_ratio: f64,
}

/// The unit-scale submit line of each key, with ids `<prefix><index>`.
fn submit_lines(prefix: &str, keys: &[Key]) -> Vec<String> {
    keys.iter()
        .enumerate()
        .map(|(i, &(b, policy, seed))| {
            proto::submit_line(&format!("{prefix}{i}"), b, policy, Scale::Unit, seed)
        })
        .collect()
}

/// Boots a daemon on `dir`, submits `keys` at one per `interval` through
/// one connection, and collects the answers in request order.
fn phase(sink: &mut Sink, dir: &Path, prefix: &str, keys: &[Key], interval: Duration) -> Phase {
    let lines = submit_lines(prefix, keys);
    let t = Instant::now();
    let daemon = Daemon::new(DaemonConfig {
        jobs: wsg_sim::pool::default_jobs(),
        cache_dir: Some(dir.to_path_buf()),
        ..DaemonConfig::default()
    })
    .expect("the daemon opens its cache directory");
    let daemon_new = t.elapsed();
    let daemon = Arc::new(daemon);
    let pacer = Arc::new(Mutex::new(Pacer::new(interval)));
    let out = StampWriter::default();
    let start = Instant::now();
    let reader = PacedReader {
        lines,
        next: 0,
        buf: Vec::new(),
        pos: 0,
        start,
        pacer: Arc::clone(&pacer),
    };
    let (done_tx, done_rx) = mpsc::channel();
    let conn = {
        let daemon = Arc::clone(&daemon);
        let out = out.clone();
        std::thread::spawn(move || {
            daemon.serve_connection(reader, out);
            let _ = done_tx.send(());
        })
    };
    let drained = done_rx.recv_timeout(PHASE_TIMEOUT).is_ok();
    let mut answers: Vec<Option<Answer>> = (0..keys.len()).map(|_| None).collect();
    let due = |i: usize| start + lock(&pacer).due(i);
    for (stamp, line) in lock(&out.0).lines.iter() {
        let Ok(v) = Json::parse(line) else {
            sink.fail(&format!("unparseable response {line}"));
            continue;
        };
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("?");
        let idx = v
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix(prefix))
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&i| i < keys.len());
        match (ty, idx) {
            ("result", Some(i)) if answers[i].is_none() => {
                answers[i] = Some(Answer {
                    latency_ms: ms(stamp.saturating_duration_since(due(i))),
                    source: v
                        .get("source")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    metrics: v
                        .get("metrics")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                });
            }
            ("result", Some(i)) => sink.fail(&format!("second result for {prefix}{i}")),
            _ => sink.fail(&format!("unexpected response {line}")),
        }
    }
    let gen_late = lock(&pacer).max_late();
    if !drained {
        sink.fail(&format!(
            "{prefix} phase did not drain within {PHASE_TIMEOUT:?}"
        ));
        // The connection thread is stuck inside the daemon; leave it to
        // process exit rather than block on it.
        return Phase {
            answers,
            daemon_new,
            gen_late,
            snapshot: None,
            disk_hit_ratio: 0.0,
        };
    }
    conn.join()
        .expect("the connection thread returns once drained");
    let snapshot = daemon.metrics_snapshot();
    let disk_hit_ratio = match daemon.cache_stats().1 {
        Some(s) if s.hits + s.misses > 0 => s.hits as f64 / (s.hits + s.misses) as f64,
        _ => 0.0,
    };
    match Arc::try_unwrap(daemon) {
        Ok(d) => d.join(),
        Err(_) => unreachable!("the connection thread released its daemon handle"),
    }
    Phase {
        answers,
        daemon_new,
        gen_late,
        snapshot: Some(snapshot),
        disk_hit_ratio,
    }
}

fn snapshot_u64(s: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(s, |v, k| v.get(k))?.as_u64()
}

/// `submitted == completed == Σ tier counts == sent`, per daemon.
fn reconcile(sink: &mut Sink, what: &str, s: &Json, sent: usize) {
    let submitted = snapshot_u64(s, &["requests", "submitted"]);
    let completed = snapshot_u64(s, &["requests", "completed"]);
    let tiers: u64 = ["memory", "disk", "simulated", "cancelled", "client-gone"]
        .iter()
        .filter_map(|t| snapshot_u64(s, &["requests", "tiers", t, "count"]))
        .sum();
    if submitted != Some(sent as u64) || completed != Some(tiers) || tiers != sent as u64 {
        sink.fail(&format!(
            "{what} metrics do not reconcile: sent {sent}, submitted {submitted:?}, \
             completed {completed:?}, tiers {tiers}"
        ));
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates a fresh `.perfbench-tmp/<tag>-<pid>` directory.
    pub fn new(tag: &str) -> Self {
        let dir = PathBuf::from(".perfbench-tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the working directory is writable");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Runs `ROUNDS` cold/warm rounds of `plan`, checks every answer, and
/// records the latency percentiles over the answers of all rounds. Returns
/// the median time one round spent in its two `Daemon::new` calls.
pub fn serve(sink: &mut Sink, plan: &Plan, seed: u64, trace: bool) -> Duration {
    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut pooled = [Vec::new(), Vec::new()];
    let mut by_source: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut daemon_new = Vec::new();
    for round in 0..ROUNDS {
        let scratch = Scratch::new(&format!("serve{round}"));
        let cache = scratch.path().join("cache");
        let cold_keys = cold_keys(plan, seed ^ (round << 32));
        let warm_keys: Vec<Key> = (0..WARM_REPLAYS).flat_map(|_| cold_keys.clone()).collect();
        sink.attempt((cold_keys.len() + warm_keys.len()) as u64);

        let cold = phase(sink, &cache, "c", &cold_keys, plan.cold_interval);
        let warm = phase(sink, &cache, "w", &warm_keys, WARM_INTERVAL);
        daemon_new.push((cold.daemon_new + warm.daemon_new).as_secs_f64());

        // Every submit answered once; every warm answer byte-equal to the
        // cold answer for the same run; the digest covers each distinct run
        // once.
        let mut by_key: BTreeMap<Key, &str> = BTreeMap::new();
        let mut lat = [Vec::new(), Vec::new()];
        for (p, (ph, keys)) in [(&cold, &cold_keys), (&warm, &warm_keys)]
            .into_iter()
            .enumerate()
        {
            for (i, a) in ph.answers.iter().enumerate() {
                let Some(a) = a else {
                    sink.fail(&format!("request {i} of phase {p} got no result"));
                    continue;
                };
                lat[p].push(a.latency_ms);
                by_source
                    .entry(a.source.clone())
                    .or_default()
                    .push(a.latency_ms);
                if p == 1 && a.source == Source::Simulated.token() {
                    sink.fail(&format!("warm request {i} was simulated again"));
                }
                match by_key.get(&keys[i]) {
                    Some(m) if *m != a.metrics => {
                        sink.fail(&format!("{:?} answered with different metrics", keys[i]))
                    }
                    Some(_) => {}
                    None => {
                        by_key.insert(keys[i], &a.metrics);
                    }
                }
            }
        }
        for (key, metrics) in &by_key {
            sink.digest("serve", &format!("{key:?}\n{metrics}"));
        }
        for (what, ph, sent) in [
            ("cold", &cold, cold_keys.len()),
            ("warm", &warm, warm_keys.len()),
        ] {
            match &ph.snapshot {
                Some(s) => reconcile(sink, what, s, sent),
                None => sink.fail(&format!("{what} daemon gave no metrics snapshot")),
            }
        }
        let [cold_lat, warm_lat] = lat;
        pooled[0].extend(cold_lat);
        pooled[1].extend(warm_lat);
        if trace {
            if let Some(s) = &cold.snapshot {
                for (name, hist) in [
                    ("serve.queue_wait_p50_us", "queue_wait_us"),
                    ("serve.service_p50_us", "service_us"),
                ] {
                    let p50 = snapshot_u64(s, &["requests", "tiers", "simulated", hist, "p50"]);
                    per_round
                        .entry(name)
                        .or_default()
                        .push(p50.unwrap_or(0) as f64);
                }
            }
            per_round
                .entry("serve.disk_hit_ratio")
                .or_default()
                .push(warm.disk_hit_ratio);
            per_round
                .entry("serve.gen_late_max_ms")
                .or_default()
                .push(ms(cold.gen_late.max(warm.gen_late)));
            if round + 1 == ROUNDS {
                serve_layers(sink, &cache, &cold_keys, scratch.path());
            }
        }
    }
    for (name, values) in &per_round {
        let v = if *name == "serve.gen_late_max_ms" {
            values.iter().copied().fold(0.0, f64::max)
        } else {
            median(values)
        };
        sink.set(name, v);
    }
    for (name, samples, q) in [
        ("serve.cold_p50_ms", &pooled[0], 0.50),
        ("serve.cold_p95_ms", &pooled[0], 0.95),
        ("serve.warm_p50_ms", &pooled[1], 0.50),
        ("serve.warm_p95_ms", &pooled[1], 0.95),
        ("serve.warm_p99_ms", &pooled[1], 0.99),
    ] {
        match percentile(samples, q) {
            Some(v) => sink.set(name, v),
            None => sink.fail(&format!("{name}: too few samples ({})", samples.len())),
        }
    }
    if trace {
        for source in ["simulated", "disk", "memory"] {
            let samples = by_source.get(source).map_or(&[][..], Vec::as_slice);
            let p50 = percentile(samples, 0.5).unwrap_or_else(|| median(samples));
            sink.set(&format!("serve.latency.{source}_p50_ms"), p50);
            sink.info(&format!("serve.answers.{source} {}", samples.len()));
        }
    }
    Duration::from_secs_f64(median(&daemon_new))
}

/// Times the serving layer's building blocks on one round's own requests:
/// request parsing, fingerprinting, disk-cache reads and writes, result
/// rendering and JSON parsing of the rendered line.
fn serve_layers(sink: &mut Sink, cache: &Path, keys: &[Key], scratch: &Path) {
    let lines = submit_lines("c", keys);
    const REPS: usize = 20;
    let t = Instant::now();
    let mut submits = Vec::new();
    for _ in 0..REPS {
        submits.clear();
        for line in &lines {
            match Request::parse(std::hint::black_box(line)) {
                Ok(Request::Submit(s)) => submits.push(s),
                _ => unreachable!("submit_line output parses as a submit"),
            }
        }
    }
    sink.set("serve.parse_us", us_per(t.elapsed(), REPS * lines.len()));

    let t = Instant::now();
    let mut fingerprints = Vec::new();
    for _ in 0..REPS {
        fingerprints = submits
            .iter()
            .map(|s| std::hint::black_box(s.run_config().fingerprint()))
            .collect();
    }
    sink.set(
        "serve.fingerprint_us",
        us_per(t.elapsed(), REPS * submits.len()),
    );

    let disk = DiskCache::open(cache, None).expect("the phase cache reopens");
    let t = Instant::now();
    let found: Vec<_> = fingerprints.iter().map(|fp| disk.get(fp)).collect();
    sink.set("serve.disk_get_us", us_per(t.elapsed(), fingerprints.len()));
    let mut metrics = Vec::with_capacity(found.len());
    for (fp, m) in fingerprints.iter().zip(found) {
        match m {
            Some(m) => metrics.push(m),
            None => sink.fail(&format!("cold run {fp} is missing from the disk cache")),
        }
    }

    let t = Instant::now();
    let mut rendered = Vec::new();
    for _ in 0..REPS {
        rendered = fingerprints
            .iter()
            .zip(&metrics)
            .map(|(fp, m)| std::hint::black_box(proto::result_line("c", Source::Disk, fp, m)))
            .collect();
    }
    sink.set(
        "serve.result_line_us",
        us_per(t.elapsed(), REPS * rendered.len()),
    );

    let t = Instant::now();
    for line in &rendered {
        let _ = std::hint::black_box(Json::parse(line));
    }
    sink.set("serve.json_parse_us", us_per(t.elapsed(), rendered.len()));

    let fresh =
        DiskCache::open(&scratch.join("insert"), None).expect("the scratch directory is writable");
    let t = Instant::now();
    for (fp, m) in fingerprints.iter().zip(&metrics) {
        fresh.insert(fp, m);
    }
    sink.set(
        "serve.disk_insert_us",
        us_per(t.elapsed(), fingerprints.len()),
    );
}

fn us_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}
