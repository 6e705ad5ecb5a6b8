//! Client-side serving utilities: the recorded request mixes, the replay
//! harness (`hdpat-sim replay`), and the deterministic replay artifact.
//!
//! A *mix* is a newline-delimited JSON file of `submit` requests (one per
//! line, no control requests) — `hdpat-sim emit-mix` generates them. The
//! replay harness feeds a mix to a daemon either **in-process** (batch
//! mode: boots a [`Daemon`], streams the mix through one connection) or
//! over a **Unix socket** (client mode), collects the responses, and
//! digests them into two artifacts:
//!
//! * the deterministic response digest ([`digest`]) — request ids,
//!   fingerprints, and full metrics text, byte-identical however the
//!   responses were produced (fresh simulation, memory hit, disk hit,
//!   batch or socket) — the `cmp` side of the CI serve lane;
//! * [`ReplayStats`] — result counts and per-source attribution
//!   (simulated / memory / disk), the hit-rate side of the lane.

use std::io::Cursor;
use std::sync::{Arc, Mutex};

use hdpat::experiments::RunConfig;
use hdpat::policy::PolicyKind;
use hdpat::serve::json::Json;
use hdpat::serve::proto;
use hdpat::serve::{Daemon, DaemonConfig};
use wsg_workloads::{BenchmarkId, Scale};

/// The fig14 policy set (baseline + the four headline competitors), with
/// their stable catalog tokens — kept in sync with
/// `figures::fig14_overall` by `tests/serving.rs`.
pub fn fig14_policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("naive", PolicyKind::Naive),
        ("transfw", PolicyKind::TransFw),
        ("valkyrie", PolicyKind::Valkyrie),
        ("barre", PolicyKind::Barre),
        ("hdpat", PolicyKind::hdpat()),
    ]
}

/// The fig14 request mix: every Table II benchmark under the baseline and
/// the four Fig 14 policies, ids `q0001…`, in the exact point order of the
/// figure's sweep — so a daemon that served this mix has a disk cache that
/// `hdpat-sim figure fig14` hits, and vice versa.
pub fn fig14_mix(scale: Scale, seed: u64) -> String {
    let mut out = String::new();
    let mut n = 0u32;
    for bench in BenchmarkId::all() {
        for (token, _) in fig14_policies() {
            n += 1;
            out.push_str(&proto::submit_line(
                &format!("q{n:04}"),
                bench,
                token,
                scale,
                seed,
            ));
            out.push('\n');
        }
    }
    out
}

/// The `RunConfig`s the fig14 mix resolves to, in mix order (for tests
/// asserting mix/figure fingerprint agreement).
pub fn fig14_configs(scale: Scale, seed: u64) -> Vec<RunConfig> {
    BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            fig14_policies()
                .into_iter()
                .map(move |(_, p)| RunConfig::new(b, scale, p).with_seed(seed))
        })
        .collect()
}

/// A `Write` handle over a shared buffer: the in-process connection writer
/// for batch replay (the daemon moves the handle; the caller keeps a clone
/// to read the responses back).
#[derive(Clone, Default)]
pub struct CollectWriter(Arc<Mutex<Vec<u8>>>);

impl CollectWriter {
    /// Everything written so far, as UTF-8 text.
    pub fn contents(&self) -> String {
        let buf = match self.0.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl std::io::Write for CollectWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut inner = match self.0.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A response line plus its client-observed arrival time in microseconds
/// since the replay started. Replays submit the whole mix up front, so the
/// arrival offset *is* the end-to-end latency the client saw for that
/// response. Feeds [`latency_report`]; never the deterministic [`digest`].
pub type TimedLine = (String, u64);

/// Batch replay: boots an in-process daemon with `config`, streams the mix
/// through one connection, drains it, and returns the response lines.
pub fn replay_batch(mix: &str, config: DaemonConfig) -> std::io::Result<Vec<String>> {
    Ok(replay_batch_timed(mix, config)?
        .into_iter()
        .map(|(line, _)| line)
        .collect())
}

/// [`replay_batch`], with each response line stamped with its arrival
/// offset for [`latency_report`].
pub fn replay_batch_timed(mix: &str, config: DaemonConfig) -> std::io::Result<Vec<TimedLine>> {
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side latency observation of a replay; feeds the stderr latency table only, never a deterministic artifact"
    )]
    let started = std::time::Instant::now();
    let daemon = Daemon::new(config)?;
    let out = CollectWriter::default();
    daemon.serve_connection(Cursor::new(mix.to_string()), out.clone());
    daemon.join();
    // Batch mode drains the connection before returning, so per-line stamps
    // are unavailable; attribute every line to the total drain time. The
    // table still shows the end-to-end picture; socket replay gives true
    // per-response arrivals.
    let total = elapsed_us(started);
    Ok(out
        .contents()
        .lines()
        .map(|l| (l.to_string(), total))
        .collect())
}

fn elapsed_us(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Socket replay: connects to a running daemon, sends the whole mix, and
/// reads responses until every submit is answered. With `shutdown`, a
/// `{"op":"shutdown"}` follows the mix and the read continues to the ack
/// (drained daemons exit afterwards). Returns every received line,
/// shutdown-ack included, each stamped with its arrival offset for
/// [`latency_report`].
///
/// The mix must be submit-only: the reader counts one `result`/`error`
/// response per request line.
#[cfg(unix)]
pub fn replay_socket_timed(
    mix: &str,
    socket: &std::path::Path,
    shutdown: bool,
) -> std::io::Result<Vec<TimedLine>> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side latency observation of a replay; feeds the stderr latency table only, never a deterministic artifact"
    )]
    let started = std::time::Instant::now();
    let stream = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let expected = mix.lines().filter(|l| !l.trim().is_empty()).count();
    writer.write_all(mix.as_bytes())?;
    if !mix.ends_with('\n') {
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    let mut lines = Vec::new();
    let mut answered = 0usize;
    let mut line = String::new();
    while answered < expected {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("daemon closed after {answered}/{expected} responses"),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if matches!(response_type(trimmed).as_deref(), Some("result" | "error")) {
            answered += 1;
        }
        lines.push((trimmed.to_string(), elapsed_us(started)));
    }
    if shutdown {
        writer.write_all(b"{\"op\":\"shutdown\"}\n")?;
        writer.flush()?;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed before the shutdown ack",
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            lines.push((trimmed.to_string(), elapsed_us(started)));
            if response_type(trimmed).as_deref() == Some("shutdown-ack") {
                break;
            }
        }
    }
    Ok(lines)
}

fn response_type(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()?
        .get("type")?
        .as_str()
        .map(str::to_string)
}

/// Per-source and per-outcome counts of one replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// `result` responses received.
    pub results: u64,
    /// `error` responses received.
    pub errors: u64,
    /// Results attributed `"source":"simulated"`.
    pub simulated: u64,
    /// Results attributed `"source":"memory"`.
    pub memory: u64,
    /// Results attributed `"source":"disk"`.
    pub disk: u64,
}

impl ReplayStats {
    /// Renders the stats (plus caller-measured wall time) as a small JSON
    /// document for `--stats-out`.
    pub fn to_json(&self, wall_seconds: f64) -> String {
        let rate = if wall_seconds > 0.0 {
            self.results as f64 / wall_seconds
        } else {
            0.0
        };
        format!(
            "{{\n  \"results\": {},\n  \"errors\": {},\n  \"sources\": {{\n    \
             \"simulated\": {},\n    \"memory\": {},\n    \"disk\": {}\n  }},\n  \
             \"wall_seconds\": {:.3},\n  \"results_per_sec\": {:.1}\n}}\n",
            self.results, self.errors, self.simulated, self.memory, self.disk, wall_seconds, rate
        )
    }
}

/// Digests raw response lines into the deterministic replay artifact and
/// the replay statistics.
///
/// The artifact records, per response and in response order:
///
/// * a `result` as `=== <id> <fingerprint>` followed by the full
///   deterministic metrics text — everything that must not vary between
///   fresh simulation, memory hits, disk hits, batch and socket transport;
/// * an `error` as `=== <id> error <code>`;
///
/// and omits the nondeterministic rest (`source` attribution, `progress`
/// events, the `shutdown-ack`), which lands in [`ReplayStats`] instead.
pub fn digest(lines: &[String]) -> (String, ReplayStats) {
    let mut artifact = String::new();
    let mut stats = ReplayStats::default();
    for line in lines {
        let Ok(v) = Json::parse(line) else {
            artifact.push_str("=== ? unparseable response\n");
            continue;
        };
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("?");
        let id = v.get("id").and_then(Json::as_str).unwrap_or("-");
        match ty {
            "result" => {
                stats.results += 1;
                match v.get("source").and_then(Json::as_str) {
                    Some("simulated") => stats.simulated += 1,
                    Some("memory") => stats.memory += 1,
                    Some("disk") => stats.disk += 1,
                    _ => {}
                }
                let fp = v.get("fingerprint").and_then(Json::as_str).unwrap_or("?");
                artifact.push_str(&format!("=== {id} {fp}\n"));
                if let Some(metrics) = v.get("metrics").and_then(Json::as_str) {
                    artifact.push_str(metrics);
                    if !metrics.ends_with('\n') {
                        artifact.push('\n');
                    }
                }
            }
            "error" => {
                stats.errors += 1;
                let code = v.get("code").and_then(Json::as_str).unwrap_or("?");
                artifact.push_str(&format!("=== {id} error {code}\n"));
            }
            // Timing/attribution side-band: stats only.
            "progress" | "shutdown-ack" | "status" | "cache-stats" | "cancelled" | "metrics" => {}
            other => {
                artifact.push_str(&format!("=== {id} unexpected {other}\n"));
            }
        }
    }
    (artifact, stats)
}

/// Renders a client-observed latency table from timed replay lines: one row
/// per result source (simulated / memory / disk) plus an `all` total, with
/// count, mean, p50, p95, and max in microseconds. Quantiles are log-bucket
/// upper bounds from [`wsg_sim::stats::LogHistogram`]. Diagnostic output
/// for stderr — never part of the deterministic replay digest.
pub fn latency_report(timed: &[TimedLine]) -> String {
    use wsg_sim::stats::LogHistogram;
    let mut by_source: Vec<(&str, LogHistogram)> = ["simulated", "memory", "disk", "all"]
        .into_iter()
        .map(|s| (s, LogHistogram::new()))
        .collect();
    for (line, us) in timed {
        let Ok(v) = Json::parse(line) else { continue };
        if v.get("type").and_then(Json::as_str) != Some("result") {
            continue;
        }
        let source = v.get("source").and_then(Json::as_str).unwrap_or("?");
        for (name, hist) in &mut by_source {
            if *name == source || *name == "all" {
                hist.record(*us);
            }
        }
    }
    let mut out =
        String::from("source      count      mean_us       p50_us       p95_us       max_us\n");
    for (name, hist) in &by_source {
        let count = hist.count();
        if count == 0 && *name != "all" {
            continue;
        }
        #[expect(
            clippy::cast_sign_loss,
            reason = "a mean of unsigned latencies is non-negative"
        )]
        let mean = hist.mean().round() as u64;
        out.push_str(&format!(
            "{name:<10} {count:>6} {mean:>12} {:>12} {:>12} {:>12}\n",
            hist.quantile_upper_bound(0.50),
            hist.quantile_upper_bound(0.95),
            hist.max(),
        ));
    }
    out
}
