//! The `hdpat-sim serve` daemon: a long-running simulation service.
//!
//! Clients connect (Unix socket, stdio, or any `BufRead`/`Write` pair in
//! tests), send newline-delimited JSON requests ([`super::proto`]), and
//! receive newline-delimited responses. The daemon:
//!
//! * schedules submits onto `jobs` simulation worker threads with
//!   **per-client fairness and priorities** — among the head-of-queue jobs
//!   of all clients, the highest priority runs first, ties going to the
//!   least-recently-scheduled client (so one chatty client cannot starve
//!   the others), FIFO within a client;
//! * answers from the [`RunCache`] (memory, then the persistent
//!   [`DiskCache`]) before simulating — the same store and probe order as
//!   the CLI's sweeps — attributing every result to its source (`memory` /
//!   `disk` / `simulated`);
//! * streams `progress` events around each simulated run: `started` before
//!   it, `finished` once it completes;
//! * releases each client's result lines **in submission order** (a
//!   per-client reorder buffer; a cancellation occupies the cancelled
//!   run's position), whatever order the scheduler completes them in;
//! * drains every queued and in-flight run before acknowledging a
//!   `shutdown`.
//!
//! # Ordering contract
//!
//! Responses tied to a submitted id (`result`, `cancelled`) are released in
//! submission order per client. Control responses (`status`,
//! `cache-stats`, `error`) and `progress` events are written immediately,
//! so they may overtake pending results; every line is written atomically
//! (never interleaved mid-line).
//!
//! # One writer per connection
//!
//! Each connection has one writer thread. It owns the connection's `Write`
//! and writes, then flushes, every line sent on the connection's channel,
//! in send order. Replies, errors and progress events are sent when they
//! are produced; `result` and `cancelled` lines are sent by the scheduler,
//! under its lock, at the moment the reorder buffer releases them, so the
//! channel's FIFO order is the release order. A send never blocks, and no
//! thread but the writer touches the socket. An orderly EOF waits until the
//! client's last line is released, then removes the client and joins its
//! writer; an abrupt disconnect removes the client at once, dropping its
//! queued jobs, and a job of its that was already running finishes into the
//! caches with no line written.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use wsg_sim::pool::spawn_detached;

use super::json::Json;
use super::proto::{self, codes, Request, Source, Submit};
use crate::experiments::{run, DiskCache, RunCache, RunConfig};
use crate::metrics::Metrics;
use crate::ops::{DiskGauges, GaugeSample, OpsLog, OpsRegistry, Tier};

/// The simulation behind submit `id`.
#[cfg(not(test))]
fn simulate(cfg: &RunConfig, _id: &str) -> Metrics {
    run(cfg)
}

/// Test seam: the submit with id [`tests::PANICKING_ID`] panics mid-run.
#[cfg(test)]
fn simulate(cfg: &RunConfig, id: &str) -> Metrics {
    assert_ne!(id, tests::PANICKING_ID, "injected simulation panic");
    run(cfg)
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic")
}

/// Daemon construction parameters.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Simulation worker threads (0 → available parallelism).
    pub jobs: usize,
    /// Directory of the persistent run cache; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Disk-cache size budget in bytes (`None` = unbounded); ignored
    /// without `cache_dir`.
    pub cache_budget: Option<u64>,
    /// Structured JSONL ops log (`--ops-log`): one event per request state
    /// transition. `None` disables it.
    pub ops_log: Option<PathBuf>,
    /// Metrics snapshot dump file (`--metrics-out`): Prometheus text for
    /// `.prom`/`.txt` paths, canonical JSON otherwise. Written at shutdown,
    /// and periodically when `metrics_interval` is set.
    pub metrics_out: Option<PathBuf>,
    /// Seconds between periodic `metrics_out` rewrites; `None` writes only
    /// the final shutdown snapshot.
    pub metrics_interval: Option<u64>,
}

/// One queued submit.
struct Job {
    /// Position in the client's submission order; the slot its response
    /// releases in.
    seq: u64,
    submit: Submit,
    /// When the submit entered the queue (request-lifecycle timing; feeds
    /// only the ops layer, never simulation state).
    enqueued: Instant,
    /// When [`SchedState::pick`] handed the job to a worker; `None` while
    /// queued (and forever, for cancelled/dropped jobs).
    scheduled: Option<Instant>,
}

/// Per-connection state.
struct Client {
    /// The connection's outgoing lines; its writer thread writes them in
    /// send order.
    tx: Sender<String>,
    /// Submits waiting for a worker, in submission order.
    queue: VecDeque<Job>,
    /// Scheduler tick at which this client last got a worker (fairness
    /// tie-break: the smallest value wins).
    last_scheduled: u64,
    /// Next submission sequence number.
    next_seq: u64,
    /// Next sequence number whose response may be sent.
    next_release: u64,
    /// Completed responses waiting for their turn (the reorder buffer).
    ready: BTreeMap<u64, String>,
    /// Ids submitted but not yet answered (duplicate detection + cancel
    /// lookup).
    live: BTreeSet<String>,
}

/// Scheduler state under the daemon's one mutex. Its methods are the
/// scheduler's transitions: they touch no socket and start no thread, and
/// the only I/O they do is a non-blocking send on a client's channel.
struct SchedState {
    /// Connected clients. A client is removed when its connection ends, at
    /// once on an abrupt disconnect.
    clients: BTreeMap<u64, Client>,
    next_client: u64,
    /// Monotonic scheduling counter feeding `Client::last_scheduled`.
    tick: u64,
    /// Jobs currently executing on workers.
    running: u64,
    /// Responses filed since the daemon started (results + cancels),
    /// including those of clients that disconnected before their release.
    completed: u64,
    shutting_down: bool,
    /// Runs completed after the shutdown request — the `drained` count of
    /// the ack.
    drained_runs: u64,
}

impl SchedState {
    fn new() -> Self {
        Self {
            clients: BTreeMap::new(),
            next_client: 0,
            tick: 1,
            running: 0,
            completed: 0,
            shutting_down: false,
            drained_runs: 0,
        }
    }

    /// Registers a connection whose lines go to `tx`; returns its id.
    fn register(&mut self, tx: Sender<String>) -> u64 {
        let cid = self.next_client;
        self.next_client += 1;
        self.clients.insert(
            cid,
            Client {
                tx,
                queue: VecDeque::new(),
                last_scheduled: 0,
                next_seq: 0,
                next_release: 0,
                ready: BTreeMap::new(),
                live: BTreeSet::new(),
            },
        );
        cid
    }

    /// The record of connected client `cid`. A connection's record exists
    /// until its own thread removes it, so every request it handles finds
    /// it.
    fn client(&mut self, cid: u64) -> &mut Client {
        match self.clients.get_mut(&cid) {
            Some(c) => c,
            None => unreachable!("client {cid} sent a request after its removal"),
        }
    }

    fn queued(&self) -> u64 {
        self.clients.values().map(|c| c.queue.len() as u64).sum()
    }

    /// Whether nothing is queued or running.
    fn idle(&self) -> bool {
        self.queued() == 0 && self.running == 0
    }

    /// Sends `line` to client `cid` now, if it is still connected.
    fn send(&self, cid: u64, line: String) {
        if let Some(c) = self.clients.get(&cid) {
            // Never blocks; a writer whose socket died discards the line.
            let _ = c.tx.send(line);
        }
    }

    /// Queues `submit` for client `cid`. Returns its sequence number, or
    /// the error line that rejects it (the daemon is draining, or the id is
    /// still in flight on this connection).
    fn submit(&mut self, cid: u64, submit: Submit) -> Result<u64, String> {
        if self.shutting_down {
            return Err(proto::error_line(
                Some(&submit.id),
                codes::SHUTTING_DOWN,
                "daemon is draining; resubmit to the next instance",
            ));
        }
        let c = self.client(cid);
        if !c.live.insert(submit.id.clone()) {
            return Err(proto::error_line(
                Some(&submit.id),
                codes::DUPLICATE_ID,
                &format!("id `{}` is still in flight on this connection", submit.id),
            ));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "enqueue stamp for queue-wait latency; ops observability only, never reaches simulation state"
        )]
        let enqueued = Instant::now();
        let seq = c.next_seq;
        c.next_seq += 1;
        c.queue.push_back(Job {
            seq,
            submit,
            enqueued,
            scheduled: None,
        });
        Ok(seq)
    }

    /// Cancels client `cid`'s queued submit `id`: its `cancelled` line
    /// takes the submit's slot in the reorder buffer. Returns when the job
    /// was enqueued, or the `not-found` error line.
    fn cancel(&mut self, cid: u64, id: &str) -> Result<Instant, String> {
        let c = self.client(cid);
        let Some(pos) = c.queue.iter().position(|j| j.submit.id == id) else {
            return Err(proto::error_line(
                Some(id),
                codes::NOT_FOUND,
                &format!("id `{id}` is not queued here"),
            ));
        };
        let job = match c.queue.remove(pos) {
            Some(j) => j,
            None => unreachable!("position() index out of queue range"),
        };
        self.finish(cid, job.seq, id, proto::cancelled_line(id));
        Ok(job.enqueued)
    }

    /// Removes client `cid` and returns its queued jobs, which no worker
    /// will run. A job of its still running finishes into the caches;
    /// [`SchedState::finish`] then finds no client and sends nothing.
    fn disconnect(&mut self, cid: u64) -> VecDeque<Job> {
        self.clients
            .remove(&cid)
            .map(|c| c.queue)
            .unwrap_or_default()
    }

    /// Picks the next job and counts it running: highest priority among
    /// every client's queue front, ties to the least-recently-scheduled
    /// client, then to the lowest client id (BTreeMap order). FIFO within a
    /// client.
    fn pick(&mut self) -> Option<(u64, Job)> {
        let best = self
            .clients
            .iter()
            .filter_map(|(&cid, c)| {
                c.queue.front().map(|job| {
                    let rank = (
                        job.submit.priority,
                        std::cmp::Reverse(c.last_scheduled),
                        std::cmp::Reverse(cid),
                    );
                    (rank, cid)
                })
            })
            .max()
            .map(|(_, cid)| cid)?;
        let tick = self.tick;
        self.tick += 1;
        self.running += 1;
        let client = self.client(best);
        client.last_scheduled = tick;
        let mut job = match client.queue.pop_front() {
            Some(j) => j,
            None => unreachable!("picked client's queue emptied under the lock"),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "schedule stamp for queue-wait latency; ops observability only, never reaches simulation state"
        )]
        let scheduled = Instant::now();
        job.scheduled = Some(scheduled);
        Some((best, job))
    }

    /// A worker finished client `cid`'s job `seq` with response `line`.
    fn complete(&mut self, cid: u64, seq: u64, id: &str, line: String) {
        self.running -= 1;
        if self.shutting_down {
            self.drained_runs += 1;
        }
        self.finish(cid, seq, id, line);
    }

    /// Files `line` as the response occupying `seq` of client `cid` and
    /// sends every response the reorder buffer now releases, in submission
    /// order. A client that disconnected is gone from the map: its line is
    /// dropped, while the result itself is already in the caches.
    fn finish(&mut self, cid: u64, seq: u64, id: &str, line: String) {
        self.completed += 1;
        let Some(c) = self.clients.get_mut(&cid) else {
            return;
        };
        c.live.remove(id);
        c.ready.insert(seq, line);
        while let Some(line) = c.ready.remove(&c.next_release) {
            let _ = c.tx.send(line);
            c.next_release += 1;
        }
    }
}

/// State shared between connection threads and simulation workers.
struct Shared {
    state: Mutex<SchedState>,
    /// Wakes workers when jobs arrive or shutdown begins.
    work: Condvar,
    /// Wakes drain waiters (EOF, shutdown) when responses are released or
    /// queued jobs vanish.
    drained: Condvar,
    /// The run store: memory in front of the optional disk cache.
    cache: RunCache,
    /// Request-lifecycle metrics for this daemon instance ([`crate::ops`]).
    ops: OpsRegistry,
    /// Structured JSONL ops log, when configured.
    ops_log: Option<OpsLog>,
    /// Simulation worker count (the `workers` gauge).
    workers: u64,
    /// Daemon start, for the uptime gauge.
    started: Instant,
}

/// Whole microseconds from `a` to `b`, zero when `b` is not after `a`.
fn micros_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_micros()).unwrap_or(u64::MAX)
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        lock(&self.state).shutting_down
    }

    /// Sends `line` to client `cid` now (replies, errors, progress events).
    fn send(&self, cid: u64, line: String) {
        lock(&self.state).send(cid, line);
    }

    /// Appends one ops-log event, when the log is configured.
    fn log_event(&self, ev: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.ops_log {
            log.event(ev, fields);
        }
    }

    /// Records a request's terminal transition in the registry and the ops
    /// log: `ev` is the transition (`complete` / `cancel` / `client-gone`),
    /// `tier` the outcome attribution. `scheduled` is `None` for jobs that
    /// never reached a worker (their whole life was queue wait).
    fn record_terminal(
        &self,
        ev: &str,
        tier: Tier,
        cid: u64,
        id: &str,
        enqueued: Instant,
        scheduled: Option<Instant>,
    ) {
        #[expect(
            clippy::disallowed_methods,
            reason = "request-lifecycle completion stamp; feeds only the ops registry and ops log, never simulation state or any deterministic artifact"
        )]
        let now = Instant::now();
        let queue_wait_us = micros_between(enqueued, scheduled.unwrap_or(now));
        let service_us = scheduled.map_or(0, |s| micros_between(s, now));
        let total_us = micros_between(enqueued, now);
        self.ops
            .record_outcome(tier, queue_wait_us, service_us, total_us);
        self.log_event(
            ev,
            &[
                ("client", Json::U64(cid)),
                ("id", Json::Str(id.to_string())),
                ("tier", Json::Str(tier.token().to_string())),
                ("queue_wait_us", Json::U64(queue_wait_us)),
                ("service_us", Json::U64(service_us)),
                ("total_us", Json::U64(total_us)),
            ],
        );
    }

    /// Samples the serving gauges: scheduler state under the lock, then the
    /// cache views (the disk occupancy scan happens outside the lock).
    fn gauge_sample(&self) -> GaugeSample {
        let (clients, queued, queue_depth_per_client, inflight, completed, reorder_buffered) = {
            let st = lock(&self.state);
            let mut depth = Vec::with_capacity(st.clients.len());
            let mut reorder = 0u64;
            for (&cid, c) in &st.clients {
                depth.push((cid, c.queue.len() as u64));
                reorder += c.ready.len() as u64;
            }
            (
                st.clients.len() as u64,
                st.queued(),
                depth,
                st.running,
                st.completed,
                reorder,
            )
        };
        let disk = self.cache.disk().map(|d| {
            let (entries, resident_bytes) = d.occupancy();
            DiskGauges {
                dir: d.dir().to_path_buf(),
                entries,
                resident_bytes,
                budget: d.budget(),
                stats: d.stats(),
            }
        });
        GaugeSample {
            clients,
            queued,
            queue_depth_per_client,
            inflight,
            completed,
            workers: self.workers,
            workers_busy: inflight,
            reorder_buffered,
            uptime_seconds: self.started.elapsed().as_secs(),
            memory_entries: self.cache.len() as u64,
            disk,
        }
    }

    /// Writes the metrics snapshot to `path` (atomically, via a sibling
    /// temp file): Prometheus text for `.prom`/`.txt`, canonical JSON
    /// otherwise. Failures are swallowed — observability must never take
    /// the serving path down.
    fn write_metrics_out(&self, path: &Path) {
        let gauges = self.gauge_sample();
        let prom = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("prom") | Some("txt")
        );
        let text = if prom {
            self.ops.snapshot_prometheus(&gauges)
        } else {
            let mut line = self.ops.snapshot_json(&gauges).to_line();
            line.push('\n');
            line
        };
        let tmp = path.with_extension("tmp-metrics");
        if std::fs::write(&tmp, &text).is_ok() && std::fs::rename(&tmp, path).is_ok() {
            return;
        }
        let _ = std::fs::write(path, &text);
    }

    /// Executes one job on a worker: resolve from the caches or simulate,
    /// then release the result through the reorder buffer.
    fn execute(&self, cid: u64, job: Job) {
        let Job {
            seq,
            submit,
            enqueued,
            scheduled,
        } = job;
        if self.ops_log.is_some() {
            let queue_wait_us = scheduled.map_or(0, |s| micros_between(enqueued, s));
            self.log_event(
                "schedule",
                &[
                    ("client", Json::U64(cid)),
                    ("id", Json::Str(submit.id.clone())),
                    ("queue_wait_us", Json::U64(queue_wait_us)),
                ],
            );
        }
        let cfg = submit.run_config();
        let key = cfg.fingerprint();
        let outcome = match self.cache.lookup(&key) {
            Some(hit) => Ok(hit),
            None => {
                let progress = |stage: &str| {
                    if submit.progress {
                        self.send(cid, proto::progress_line(&submit.id, stage));
                    }
                };
                progress("started");
                // `finished` fires as soon as the run completes, before any
                // caching or response work. A panicking run is caught here:
                // its slot still gets an answer and the accounting below
                // still runs.
                catch_unwind(AssertUnwindSafe(|| simulate(&cfg, &submit.id))).map(|m| {
                    progress("finished");
                    let m = Arc::new(m);
                    self.cache.insert(&key, Arc::clone(&m));
                    (m, Source::Simulated)
                })
            }
        };
        let (line, tier) = match outcome {
            Ok((metrics, source)) => {
                let tier = match source {
                    Source::Memory => Tier::Memory,
                    Source::Disk => Tier::Disk,
                    Source::Simulated => Tier::Simulated,
                };
                (proto::result_line(&submit.id, source, &key, &metrics), tier)
            }
            Err(payload) => {
                let message = format!("simulation panicked: {}", panic_message(&*payload));
                let line = proto::error_line(Some(&submit.id), codes::RUN_FAILED, &message);
                (line, Tier::Failed)
            }
        };
        self.record_terminal("complete", tier, cid, &submit.id, enqueued, scheduled);
        lock(&self.state).complete(cid, seq, &submit.id, line);
        self.drained.notify_all();
    }

    /// A worker's next job: blocks until one is schedulable, or returns
    /// `None` (retiring the worker) once the daemon is shutting down and
    /// nothing is queued.
    fn fetch(&self) -> Option<(u64, Job)> {
        let mut st = lock(&self.state);
        loop {
            if let Some(picked) = st.pick() {
                return Some(picked);
            }
            if st.shutting_down {
                return None;
            }
            st = wait(&self.work, st);
        }
    }

    /// Blocks until every submit of `cid` has been answered, or the client
    /// is gone.
    fn drain_client(&self, cid: u64) {
        let mut st = lock(&self.state);
        while st
            .clients
            .get(&cid)
            .is_some_and(|c| c.next_release != c.next_seq)
        {
            st = wait(&self.drained, st);
        }
    }

    /// Removes client `cid`. Its queued jobs — there are some only after an
    /// abrupt disconnect — are dropped and terminate in the `client-gone`
    /// tier; in-flight ones still finish and count under their real source.
    fn disconnect(&self, cid: u64) {
        let dropped = lock(&self.state).disconnect(cid);
        // A shutdown drain may be blocked on the queued jobs that just
        // vanished.
        self.drained.notify_all();
        for job in dropped {
            self.record_terminal(
                "client-gone",
                Tier::ClientGone,
                cid,
                &job.submit.id,
                job.enqueued,
                job.scheduled,
            );
        }
    }

    /// Handles one request line from client `cid`.
    fn handle(&self, cid: u64, line: &str) -> Flow {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.send(cid, e.to_line());
                return Flow::Continue;
            }
        };
        match request {
            Request::Submit(submit) => self.handle_submit(cid, submit),
            Request::Status => self.send(cid, proto::status_line(&self.gauge_sample())),
            Request::CacheStats => self.send(cid, proto::cache_stats_line(&self.gauge_sample())),
            Request::Metrics => {
                self.send(cid, self.ops.snapshot_json(&self.gauge_sample()).to_line())
            }
            Request::Cancel { id } => self.handle_cancel(cid, &id),
            Request::Shutdown => {
                self.handle_shutdown(cid);
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    fn handle_submit(&self, cid: u64, submit: Submit) {
        let id = submit.id.clone();
        let queued = lock(&self.state).submit(cid, submit);
        match queued {
            Err(line) => self.send(cid, line),
            Ok(seq) => {
                self.ops.record_submit();
                self.log_event(
                    "enqueue",
                    &[
                        ("client", Json::U64(cid)),
                        ("id", Json::Str(id)),
                        ("seq", Json::U64(seq)),
                    ],
                );
                self.work.notify_all();
            }
        }
    }

    fn handle_cancel(&self, cid: u64, id: &str) {
        let cancelled = lock(&self.state).cancel(cid, id);
        match cancelled {
            Err(line) => self.send(cid, line),
            Ok(enqueued) => {
                self.record_terminal("cancel", Tier::Cancelled, cid, id, enqueued, None);
                // A shutdown drain may be blocked on the cancelled job.
                self.drained.notify_all();
            }
        }
    }

    /// Shutdown: stop intake, wake the workers so they drain and retire,
    /// wait until nothing is queued or running, then acknowledge. Every
    /// result line of this client was sent before the ack, so the ack is
    /// its last line.
    fn handle_shutdown(&self, cid: u64) {
        let drained = {
            let mut st = lock(&self.state);
            st.shutting_down = true;
            self.work.notify_all();
            while !st.idle() {
                st = wait(&self.drained, st);
            }
            st.drained_runs
        };
        self.log_event("shutdown", &[("drained", Json::U64(drained))]);
        self.send(cid, proto::shutdown_ack_line(drained));
    }

    /// Answers one raw request line. Blank lines are not requests and get
    /// no reply; a line that is not UTF-8 gets one `bad-request` error.
    fn handle_bytes(&self, cid: u64, line: &[u8]) -> Flow {
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => Flow::Continue,
            Ok(text) => self.handle(cid, text.trim()),
            Err(e) => {
                self.reply_error(
                    cid,
                    codes::BAD_REQUEST,
                    &format!("request line is not valid UTF-8: {e}"),
                );
                Flow::Continue
            }
        }
    }

    fn reply_error(&self, cid: u64, code: &str, message: &str) {
        self.send(cid, proto::error_line(None, code, message));
    }

    /// Reads requests from `reader` until EOF, a `shutdown`, an abrupt
    /// error, or (for sockets with a read timeout) the daemon shutting down
    /// underneath an idle connection; then waits for this client's results
    /// to drain, removes it and joins its writer. Every non-blank line gets
    /// exactly one reply, and no more than [`proto::MAX_LINE_BYTES`] of a
    /// line is ever buffered.
    fn serve_connection<R: BufRead>(&self, mut reader: R, mut writer: Box<dyn Write + Send>) {
        let (tx, rx) = mpsc::channel::<String>();
        let lines_out = spawn_detached("hdpat-serve-writer", move || {
            for line in rx {
                // A failed write means the client is gone; its jobs still
                // complete and populate the caches.
                let _ = writeln!(writer, "{line}");
                let _ = writer.flush();
            }
        });
        let cid = lock(&self.state).register(tx);
        let mut acc: Vec<u8> = Vec::new();
        // The current line outgrew the cap: it has been answered with
        // `line-too-long`, and its bytes are dropped up to its newline.
        let mut skipping = false;
        loop {
            // One byte past the cap is enough to notice an over-long line.
            let room = (proto::MAX_LINE_BYTES + 1 - acc.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut acc) {
                Ok(0) => {
                    // EOF; a final unterminated line still counts.
                    if !skipping {
                        let _ = self.handle_bytes(cid, &acc);
                    }
                    break;
                }
                Ok(_) if acc.ends_with(b"\n") => {
                    let stop = !std::mem::take(&mut skipping)
                        && matches!(self.handle_bytes(cid, &acc), Flow::Stop);
                    acc.clear();
                    if stop {
                        break;
                    }
                }
                Ok(_) if acc.len() > proto::MAX_LINE_BYTES => {
                    if !skipping {
                        skipping = true;
                        self.reply_error(
                            cid,
                            codes::LINE_TOO_LONG,
                            &format!(
                                "request line exceeds {} bytes; skipped to its newline",
                                proto::MAX_LINE_BYTES
                            ),
                        );
                    }
                    acc.clear();
                }
                // A partial line (no newline yet): keep accumulating.
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    // Timeout tick on a socket reader: notice a shutdown
                    // initiated by another client and close.
                    if self.is_shutting_down() {
                        break;
                    }
                }
                Err(_) => {
                    // Abrupt disconnect (reset, broken pipe, ...): nothing
                    // can be written back, so don't wait for queued work —
                    // drop it now; `drain_client` below then finds no
                    // client and returns at once.
                    self.disconnect(cid);
                    break;
                }
            }
        }
        self.drain_client(cid);
        // The connection's one sender goes with its record, so the writer
        // ends once it has written every line.
        self.disconnect(cid);
        let _ = lines_out.join();
    }
}

/// Whether the connection loop keeps reading after a request.
enum Flow {
    Continue,
    Stop,
}

/// A running simulation daemon; see the module docs.
///
/// Construct with [`Daemon::new`], attach connections with
/// [`Daemon::serve_connection`] (any reader/writer pair: stdio, pipes,
/// sockets) or [`Daemon::serve_unix`], and retire it with
/// [`Daemon::join`].
pub struct Daemon {
    shared: Arc<Shared>,
    /// The simulation workers; each exits once a shutdown has drained the
    /// queues.
    workers: Vec<JoinHandle<()>>,
    /// Periodic metrics dump destination, re-written one final time at
    /// [`Daemon::join`] so the file always ends on post-drain totals.
    metrics_out: Option<PathBuf>,
    /// The periodic `--metrics-interval` dump thread, if configured.
    dump: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Builds the daemon: opens the disk cache (when configured), opens the
    /// ops log / metrics dump (when configured), and starts the simulation
    /// workers.
    pub fn new(config: DaemonConfig) -> std::io::Result<Self> {
        let cache = match &config.cache_dir {
            Some(dir) => RunCache::new().with_disk(DiskCache::open(dir, config.cache_budget)?),
            None => RunCache::new(),
        };
        let jobs = if config.jobs == 0 {
            wsg_sim::pool::default_jobs()
        } else {
            config.jobs
        };
        let ops_log = match &config.ops_log {
            Some(path) => Some(OpsLog::create(path)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState::new()),
            work: Condvar::new(),
            drained: Condvar::new(),
            cache,
            ops: OpsRegistry::new(),
            ops_log,
            workers: jobs as u64,
            #[expect(
                clippy::disallowed_methods,
                reason = "daemon start stamp for the uptime gauge; ops observability only, never reaches simulation state"
            )]
            started: Instant::now(),
        });
        shared.log_event(
            "start",
            &[
                ("jobs", Json::U64(jobs as u64)),
                (
                    "cache_dir",
                    match &config.cache_dir {
                        Some(d) => Json::Str(d.display().to_string()),
                        None => Json::Null,
                    },
                ),
            ],
        );
        let workers = (0..jobs)
            .map(|_| {
                let shared = Arc::clone(&shared);
                spawn_detached("hdpat-serve-worker", move || {
                    while let Some((cid, job)) = shared.fetch() {
                        // `execute` answers a panicking simulation itself;
                        // this keeps the worker serving through any other
                        // panic (the default hook has already printed it).
                        let _ = catch_unwind(AssertUnwindSafe(|| shared.execute(cid, job)));
                    }
                })
            })
            .collect();
        let dump = match (&config.metrics_out, config.metrics_interval) {
            (Some(path), Some(secs)) => {
                let path = path.clone();
                let shared = Arc::clone(&shared);
                Some(spawn_detached("hdpat-metrics-dump", {
                    move || {
                        let period = std::time::Duration::from_secs(secs.max(1));
                        'dump: loop {
                            // Sleep in small steps so shutdown is noticed
                            // promptly instead of after a full interval.
                            let mut slept = std::time::Duration::ZERO;
                            while slept < period {
                                if shared.is_shutting_down() {
                                    break 'dump;
                                }
                                let step = std::time::Duration::from_millis(50);
                                std::thread::sleep(step);
                                slept += step;
                            }
                            shared.write_metrics_out(&path);
                        }
                    }
                }))
            }
            _ => None,
        };
        Ok(Self {
            shared,
            workers,
            metrics_out: config.metrics_out.clone(),
            dump,
        })
    }

    /// Simulation worker count.
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }

    /// Whether a shutdown request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Serves one client connection to completion (EOF or shutdown); the
    /// ordering semantics are described in the module docs. Blocking; call
    /// from one thread per connection. Returns once every response for
    /// this client has been written.
    pub fn serve_connection<R, W>(&self, reader: R, writer: W)
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        self.shared.serve_connection(reader, Box::new(writer));
    }

    /// Binds `path` and serves Unix-socket clients until a client sends
    /// `shutdown`. Each connection gets its own handler thread; the socket
    /// file is removed on exit.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let mut handlers = Vec::new();
        while !self.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    // The timeout keeps idle connection readers responsive
                    // to a shutdown initiated elsewhere.
                    stream.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;
                    let reader = std::io::BufReader::new(stream.try_clone()?);
                    let shared = Arc::clone(&self.shared);
                    handlers.push(spawn_detached("hdpat-serve-conn", move || {
                        shared.serve_connection(reader, Box::new(stream));
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => {
                    let _ = std::fs::remove_file(path);
                    return Err(e);
                }
            }
        }
        for h in handlers {
            // Handler threads exit on their own after shutdown (read
            // timeout); a panicked handler already dropped its client.
            let _ = h.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Stub so non-Unix builds still compile; the serve transport is
    /// Unix-socket only.
    #[cfg(not(unix))]
    pub fn serve_unix(&self, _path: &Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are unavailable on this platform; use --stdio",
        ))
    }

    /// Retires the daemon: initiates shutdown (if no client did) and joins
    /// the workers, so every in-flight run finishes first.
    pub fn join(self) {
        lock(&self.shared.state).shutting_down = true;
        self.shared.work.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(dump) = self.dump {
            let _ = dump.join();
        }
        // Final dump after the workers drained, so the file on disk always
        // ends on totals that include every completed request.
        if let Some(path) = &self.metrics_out {
            self.shared.write_metrics_out(path);
        }
        self.shared.log_event("stop", &[]);
    }

    /// Cache statistics snapshot: `(memory entries, disk stats)`.
    pub fn cache_stats(&self) -> (usize, Option<crate::experiments::DiskCacheStats>) {
        (
            self.shared.cache.len(),
            self.shared.cache.disk().map(DiskCache::stats),
        )
    }

    /// Current operational metrics snapshot — the same canonical JSON object
    /// the `metrics` wire op returns. See [`crate::ops`] for the schema.
    pub fn metrics_snapshot(&self) -> Json {
        self.shared.ops.snapshot_json(&self.shared.gauge_sample())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::json::Json;
    use std::io::Cursor;

    /// The submit id whose simulation panics (see [`simulate`]).
    pub(super) const PANICKING_ID: &str = "injected-panic";

    /// A `Write` handle over a shared buffer, so tests can read back what
    /// the daemon wrote after the connection closes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).expect("daemon wrote invalid UTF-8")
        }

        fn lines(&self) -> Vec<String> {
            self.contents().lines().map(str::to_string).collect()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn daemon(jobs: usize) -> Daemon {
        Daemon::new(DaemonConfig {
            jobs,
            ..DaemonConfig::default()
        })
        .expect("daemon boots without a cache dir")
    }

    fn member(line: &str, key: &str) -> Json {
        Json::parse(line)
            .unwrap_or_else(|e| panic!("`{line}` is not JSON: {e}"))
            .get(key)
            .unwrap_or_else(|| panic!("`{line}` has no `{key}`"))
            .clone()
    }

    #[test]
    fn submits_are_answered_in_submission_order() {
        let d = daemon(4);
        let out = SharedBuf::default();
        // Different priorities force out-of-order execution; responses must
        // come back in submission order regardless.
        let mix = [
            r#"{"op":"submit","id":"a","benchmark":"RELU","policy":"naive","scale":"unit","priority":0}"#,
            r#"{"op":"submit","id":"b","benchmark":"AES","policy":"naive","scale":"unit","priority":9}"#,
            r#"{"op":"submit","id":"c","benchmark":"RELU","policy":"naive","scale":"unit","priority":5}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let ids: Vec<Json> = lines.iter().map(|l| member(l, "id")).collect();
        assert_eq!(ids, ["a", "b", "c"].map(|s| Json::Str(s.into())).to_vec());
        // `a` and `c` are the same run. With concurrent workers both may
        // miss and simulate (the caches are consulted at execution time),
        // so only the bytes — not the attribution — are guaranteed equal.
        assert_eq!(member(&lines[0], "source"), Json::Str("simulated".into()));
        assert!(
            matches!(
                member(&lines[2], "source"),
                Json::Str(s) if s == "memory" || s == "simulated"
            ),
            "{lines:?}"
        );
        assert_eq!(member(&lines[0], "metrics"), member(&lines[2], "metrics"));
        d.join();
    }

    #[test]
    fn concurrent_clients_each_get_their_own_ordered_responses() {
        let d = Arc::new(daemon(4));
        let mut handles = Vec::new();
        let mut bufs = Vec::new();
        for client in 0..3u32 {
            let out = SharedBuf::default();
            bufs.push(out.clone());
            let d = Arc::clone(&d);
            handles.push(wsg_sim::pool::spawn_detached("test-client", move || {
                let mix: String = (0..4)
                    .map(|i| {
                        // Shared points across clients so the caches get
                        // concurrent traffic.
                        let bench = if i % 2 == 0 { "RELU" } else { "AES" };
                        format!(
                            "{{\"op\":\"submit\",\"id\":\"c{client}-{i}\",\"benchmark\":\"{bench}\",\
                             \"policy\":\"naive\",\"scale\":\"unit\",\"priority\":{}}}\n",
                            i % 3
                        )
                    })
                    .collect();
                d.serve_connection(Cursor::new(mix), out);
            }));
        }
        for h in handles {
            h.join().expect("client thread panicked");
        }
        for (client, out) in bufs.iter().enumerate() {
            let lines = out.lines();
            assert_eq!(lines.len(), 4, "client {client}: {lines:?}");
            for (i, line) in lines.iter().enumerate() {
                assert_eq!(
                    member(line, "id"),
                    Json::Str(format!("c{client}-{i}")),
                    "client {client} out of order: {lines:?}"
                );
            }
        }
        match Arc::try_unwrap(d) {
            Ok(d) => d.join(),
            Err(_) => unreachable!("client threads joined; no handles remain"),
        }
    }

    /// A connection that delivers its request bytes, then fails like a
    /// reset socket — an abrupt error, not an orderly EOF.
    struct AbruptRead {
        inner: Cursor<Vec<u8>>,
    }

    impl std::io::Read for AbruptRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "peer reset the connection",
                ));
            }
            Ok(n)
        }
    }

    #[test]
    fn abrupt_disconnect_drops_queued_work_and_reaps_the_client() {
        // Regression: an abrupt reader error used to take the same path as
        // an orderly EOF — `drain_client` blocked until every queued job
        // had been *simulated*, each result parked forever in the reorder
        // buffer of a client nobody would ever flush again. The disconnect
        // path must instead drop queued jobs, let in-flight ones finish
        // into the caches, and reap the client record.
        let d = daemon(1);
        let out = SharedBuf::default();
        // Three distinct cache-missing runs on a one-worker pool: at most
        // one can be in flight by the time the reader errors out.
        let mix: String = (0..3)
            .map(|i| {
                format!(
                    "{{\"op\":\"submit\",\"id\":\"gone-{i}\",\"benchmark\":\"RELU\",\
                     \"policy\":\"naive\",\"scale\":\"unit\",\"seed\":{i},\"priority\":0}}\n"
                )
            })
            .collect();
        let reader = std::io::BufReader::new(AbruptRead {
            inner: Cursor::new(mix.into_bytes()),
        });
        // Must return promptly (abandon), not after simulating all three.
        d.serve_connection(reader, out.clone());
        // The client record goes at once; its in-flight job (if any) still
        // finishes, into the caches only. Bounded poll so a regression
        // fails, not hangs.
        let mut tries = 0;
        while {
            let st = lock(&d.shared.state);
            !st.clients.is_empty() || st.running != 0
        } {
            tries += 1;
            assert!(tries < 2000, "disconnected client was never reaped");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        {
            let st = lock(&d.shared.state);
            assert_eq!(st.queued(), 0, "queued jobs must die with the client");
            assert_eq!(st.running, 0);
        }
        // At most the one in-flight run was simulated into the cache; the
        // two queued ones were dropped (pre-fix: all three executed).
        let (mem_entries, _) = d.cache_stats();
        assert!(
            mem_entries <= 1,
            "doomed queued jobs were simulated: {mem_entries}"
        );
        assert!(
            out.lines().len() <= 1,
            "responses written after the disconnect: {:?}",
            out.lines()
        );
        // The daemon stays healthy: a fresh, orderly client is served.
        let out2 = SharedBuf::default();
        let submit = r#"{"op":"submit","id":"z","benchmark":"RELU","policy":"naive","scale":"unit","priority":0}"#;
        d.serve_connection(Cursor::new(submit), out2.clone());
        let lines = out2.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(member(&lines[0], "id"), Json::Str("z".into()));
        d.join();
    }

    #[test]
    fn progress_events_bracket_simulated_runs_only() {
        let d = daemon(1);
        let out = SharedBuf::default();
        let mix = concat!(
            r#"{"op":"submit","id":"p1","benchmark":"RELU","policy":"naive","scale":"unit","progress":true}"#,
            "\n",
            // Same run again: memory hit, so no progress events.
            r#"{"op":"submit","id":"p2","benchmark":"RELU","policy":"naive","scale":"unit","progress":true}"#,
        );
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        let kinds: Vec<(String, String)> = lines
            .iter()
            .map(|l| {
                let ty = member(l, "type");
                let id = member(l, "id");
                (
                    ty.as_str().unwrap_or("?").to_string(),
                    id.as_str().unwrap_or("?").to_string(),
                )
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("progress".into(), "p1".into()),
                ("progress".into(), "p1".into()),
                ("result".into(), "p1".into()),
                ("result".into(), "p2".into()),
            ],
            "{lines:?}"
        );
        assert_eq!(member(&lines[0], "state"), Json::Str("started".into()));
        assert_eq!(member(&lines[1], "state"), Json::Str("finished".into()));
        assert_eq!(member(&lines[3], "source"), Json::Str("memory".into()));
        d.join();
    }

    #[test]
    fn cancel_occupies_the_cancelled_slot_and_misses_report_not_found() {
        // One worker: k1 occupies it (FIFO within a client), so k2 is still
        // queued when the cancel arrives a few request lines later. The
        // worker races the reader, though, so the test also tolerates k2
        // having started (the cancel then reports not-found and k2 runs to
        // a result).
        let d = daemon(1);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"submit","id":"k1","benchmark":"MM","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"k2","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"cancel","id":"k2"}"#,
            r#"{"op":"cancel","id":"nonexistent"}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        // Errors (not-found) are immediate, so they may precede the k1/k2
        // responses; the cancel for `nonexistent` always produces one, the
        // cancel for k2 only in the already-started race.
        let errors: Vec<&String> = lines
            .iter()
            .filter(|l| member(l, "type") == Json::Str("error".into()))
            .collect();
        assert!((1..=2).contains(&errors.len()), "{lines:?}");
        for e in &errors {
            assert_eq!(member(e, "code"), Json::Str(codes::NOT_FOUND.into()));
        }
        let ordered: Vec<String> = lines
            .iter()
            .filter(|l| member(l, "type") != Json::Str("error".into()))
            .map(|l| {
                format!(
                    "{}:{}",
                    member(l, "type").as_str().unwrap_or("?"),
                    member(l, "id").as_str().unwrap_or("?")
                )
            })
            .collect();
        // k2 either got cancelled while queued or had already started on the
        // racing worker (then it completes as a result; the cancel reported
        // not-found — but we asserted exactly one error, the nonexistent
        // one, so whichever happened shows up here in submission order).
        assert_eq!(
            ordered.first().map(String::as_str),
            Some("result:k1"),
            "{lines:?}"
        );
        assert!(
            ordered.get(1).map(String::as_str) == Some("cancelled:k2")
                || ordered.get(1).map(String::as_str) == Some("result:k2"),
            "{lines:?}"
        );
        d.join();
    }

    #[test]
    fn shutdown_drains_and_acks_last() {
        let d = daemon(2);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"submit","id":"s1","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"s2","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"shutdown"}"#,
            // Never read: the connection stops at the shutdown request.
            r#"{"op":"status"}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert_eq!(member(&lines[0], "id"), Json::Str("s1".into()));
        assert_eq!(member(&lines[1], "id"), Json::Str("s2".into()));
        assert_eq!(member(&lines[2], "type"), Json::Str("shutdown-ack".into()));
        assert!(d.is_shutting_down());
        // New submits after shutdown are rejected.
        let late = SharedBuf::default();
        d.serve_connection(
            Cursor::new(r#"{"op":"submit","id":"x","benchmark":"RELU","policy":"naive"}"#),
            late.clone(),
        );
        let lines = late.lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            member(&lines[0], "code"),
            Json::Str(codes::SHUTTING_DOWN.into())
        );
        d.join();
    }

    #[test]
    fn status_cache_stats_and_duplicate_ids() {
        let d = daemon(2);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"status"}"#,
            r#"{"op":"submit","id":"dup","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"dup","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"cache-stats"}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(
            member(&lines[0], "type"),
            Json::Str("status".into()),
            "{lines:?}"
        );
        let dup_errors = lines
            .iter()
            .filter(|l| member(l, "type") == Json::Str("error".into()))
            .count();
        assert_eq!(dup_errors, 1, "{lines:?}");
        let cache = lines
            .iter()
            .find(|l| member(l, "type") == Json::Str("cache-stats".into()))
            .unwrap_or_else(|| panic!("no cache-stats in {lines:?}"));
        assert_eq!(member(cache, "disk"), Json::Bool(false));
        let results = lines
            .iter()
            .filter(|l| member(l, "type") == Json::Str("result".into()))
            .count();
        assert_eq!(results, 1, "{lines:?}");
        d.join();
    }

    #[test]
    fn disk_cache_attribution_across_daemon_instances() {
        let dir =
            std::env::temp_dir().join(format!("hdpat-daemon-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DaemonConfig {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        };
        let submit =
            r#"{"op":"submit","id":"d1","benchmark":"RELU","policy":"naive","scale":"unit"}"#;

        let first = Daemon::new(config.clone()).expect("first daemon boots");
        let out1 = SharedBuf::default();
        first.serve_connection(Cursor::new(submit), out1.clone());
        first.join();
        let lines = out1.lines();
        assert_eq!(member(&lines[0], "source"), Json::Str("simulated".into()));

        // A fresh daemon (empty memory cache) resolves the same submit from
        // the persistent store, byte-identically.
        let second = Daemon::new(config).expect("second daemon boots");
        let out2 = SharedBuf::default();
        second.serve_connection(Cursor::new(submit), out2.clone());
        let (mem_entries, disk_stats) = second.cache_stats();
        second.join();
        let lines2 = out2.lines();
        assert_eq!(member(&lines2[0], "source"), Json::Str("disk".into()));
        assert_eq!(member(&lines[0], "metrics"), member(&lines2[0], "metrics"));
        assert_eq!(mem_entries, 1, "disk hit promotes into memory");
        assert_eq!(disk_stats.map(|s| s.hits), Some(1));
        std::fs::remove_dir_all(&dir).expect("test dir removable");
    }

    #[test]
    fn a_panicking_run_answers_its_slot_and_the_daemon_keeps_serving() {
        let d = daemon(2);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"submit","id":"p1","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"injected-panic","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"p3","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"shutdown"}"#,
        ]
        .join("\n");
        // Returns only once shutdown has drained every run.
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 4, "{lines:?}");
        let ids: Vec<Json> = lines[..3].iter().map(|l| member(l, "id")).collect();
        assert_eq!(
            ids,
            ["p1", PANICKING_ID, "p3"]
                .map(|s| Json::Str(s.into()))
                .to_vec()
        );
        assert_eq!(member(&lines[1], "type"), Json::Str("error".into()));
        assert_eq!(
            member(&lines[1], "code"),
            Json::Str(codes::RUN_FAILED.into())
        );
        assert_eq!(member(&lines[2], "type"), Json::Str("result".into()));
        assert_eq!(member(&lines[3], "type"), Json::Str("shutdown-ack".into()));
        let snap = d.metrics_snapshot();
        let requests = snap.get("requests").expect("requests member");
        let tiers = requests.get("tiers").expect("tiers member");
        let count = |tier: &str| {
            tiers
                .get(tier)
                .and_then(|t| t.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("tier {tier} missing in {snap:?}"))
        };
        assert_eq!(count("failed"), 1);
        assert_eq!(count("simulated") + count("memory") + count("disk"), 2);
        assert_eq!(requests.get("submitted").and_then(Json::as_u64), Some(3));
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(3));
        d.join();
    }

    #[test]
    fn metrics_op_returns_a_reconciling_snapshot() {
        let d = daemon(2);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"submit","id":"m1","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
            // Same point again: a memory hit once m1 has simulated.
            r#"{"op":"submit","id":"m2","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
            r#"{"op":"metrics"}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        let snap = lines
            .iter()
            .find(|l| member(l, "type") == Json::Str("metrics".into()))
            .unwrap_or_else(|| panic!("no metrics response in {lines:?}"));
        let v = Json::parse(snap).expect("metrics snapshot parses");
        // Canonical: the emitted line round-trips byte-identically.
        assert_eq!(v.to_line(), *snap);
        let requests = v.get("requests").expect("requests member");
        assert_eq!(requests.get("submitted").and_then(Json::as_u64), Some(2));
        // The metrics op answers in-line (not through the reorder buffer),
        // so it may observe m2 still in flight; at quiescence — which the
        // Daemon accessor samples after serve_connection returned — every
        // submit is attributed to exactly one tier.
        let quiesced = d.metrics_snapshot();
        let requests = quiesced.get("requests").expect("requests member");
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
        let tiers = requests.get("tiers").expect("tiers member");
        let count = |tier: &str| {
            tiers
                .get(tier)
                .and_then(|t| t.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("tier {tier} missing in {quiesced:?}"))
        };
        assert_eq!(
            count("simulated") + count("memory") + count("disk"),
            2,
            "{quiesced:?}"
        );
        assert_eq!(count("cancelled") + count("client-gone"), 0);
        // Gauges reflect the drained pool.
        let gauges = quiesced.get("gauges").expect("gauges member");
        assert_eq!(gauges.get("queued").and_then(Json::as_u64), Some(0));
        assert_eq!(gauges.get("inflight").and_then(Json::as_u64), Some(0));
        assert_eq!(gauges.get("workers").and_then(Json::as_u64), Some(2));
        d.join();
    }

    #[test]
    fn status_reports_ops_members_and_cancel_counts_into_the_registry() {
        let d = daemon(1);
        let out = SharedBuf::default();
        let mix = [
            r#"{"op":"submit","id":"c1","benchmark":"MM","policy":"naive","scale":"unit"}"#,
            r#"{"op":"submit","id":"c2","benchmark":"AES","policy":"naive","scale":"unit"}"#,
            r#"{"op":"cancel","id":"c2"}"#,
            r#"{"op":"status"}"#,
        ]
        .join("\n");
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        let status = lines
            .iter()
            .find(|l| member(l, "type") == Json::Str("status".into()))
            .unwrap_or_else(|| panic!("no status in {lines:?}"));
        let v = Json::parse(status).expect("status parses");
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(1));
        assert!(v.get("uptime_seconds").and_then(Json::as_u64).is_some());
        assert!(v.get("reorder_buffered").and_then(Json::as_u64).is_some());
        assert!(
            matches!(v.get("queue_depth"), Some(Json::Arr(_))),
            "{status}"
        );
        // Whichever way the worker/cancel race went, both submits terminate
        // in exactly one tier each.
        let quiesced = d.metrics_snapshot();
        let requests = quiesced.get("requests").expect("requests member");
        assert_eq!(requests.get("submitted").and_then(Json::as_u64), Some(2));
        assert_eq!(requests.get("completed").and_then(Json::as_u64), Some(2));
        d.join();
    }

    #[test]
    fn ops_log_records_the_request_lifecycle() {
        let dir = std::env::temp_dir().join(format!("hdpat-ops-log-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir creatable");
        let log_path = dir.join("ops.jsonl");
        let d = Daemon::new(DaemonConfig {
            jobs: 1,
            ops_log: Some(log_path.clone()),
            ..DaemonConfig::default()
        })
        .expect("daemon boots with an ops log");
        let out = SharedBuf::default();
        let submit =
            r#"{"op":"submit","id":"log1","benchmark":"RELU","policy":"naive","scale":"unit"}"#;
        d.serve_connection(Cursor::new(submit), out.clone());
        d.join();
        let log = std::fs::read_to_string(&log_path).expect("ops log written");
        let events: Vec<String> = log
            .lines()
            .map(|l| {
                Json::parse(l)
                    .unwrap_or_else(|e| panic!("ops log line `{l}` is not JSON: {e}"))
                    .get("ev")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("ops log line `{l}` has no ev"))
                    .to_string()
            })
            .collect();
        assert_eq!(events.first().map(String::as_str), Some("start"), "{log}");
        assert_eq!(events.last().map(String::as_str), Some("stop"), "{log}");
        for required in ["enqueue", "schedule", "complete"] {
            assert_eq!(events.iter().filter(|e| *e == required).count(), 1, "{log}");
        }
        // Lifecycle events carry the latency decomposition.
        let complete = log
            .lines()
            .find(|l| l.contains("\"ev\":\"complete\""))
            .expect("complete event");
        let v = Json::parse(complete).expect("complete event parses");
        assert_eq!(v.get("id").and_then(Json::as_str), Some("log1"));
        assert_eq!(v.get("tier").and_then(Json::as_str), Some("simulated"));
        for field in ["queue_wait_us", "service_us", "total_us", "t_ms"] {
            assert!(
                v.get(field).and_then(Json::as_u64).is_some(),
                "missing {field}: {complete}"
            );
        }
        std::fs::remove_dir_all(&dir).expect("test dir removable");
    }

    #[test]
    fn malformed_lines_get_errors_and_do_not_kill_the_connection() {
        let d = daemon(1);
        let out = SharedBuf::default();
        let mix = concat!(
            "{broken\n",
            "\n", // blank lines are ignored
            r#"{"op":"submit","id":"ok","benchmark":"RELU","policy":"naive","scale":"unit"}"#,
        );
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(member(&lines[0], "type"), Json::Str("error".into()));
        assert_eq!(
            member(&lines[0], "code"),
            Json::Str(codes::BAD_REQUEST.into())
        );
        assert_eq!(member(&lines[1], "type"), Json::Str("result".into()));
        d.join();
    }

    const RELU_SUBMIT: &str =
        r#"{"op":"submit","id":"ok","benchmark":"RELU","policy":"naive","scale":"unit"}"#;

    #[test]
    fn an_over_long_line_gets_one_error_and_the_connection_keeps_serving() {
        // Regression: the line buffer had no cap, so a client that never
        // sent a newline grew daemon memory without bound.
        let d = daemon(1);
        let out = SharedBuf::default();
        let mut mix = vec![b'x'; 2 << 20];
        mix.push(b'\n');
        mix.extend_from_slice(RELU_SUBMIT.as_bytes());
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            member(&lines[0], "code"),
            Json::Str(codes::LINE_TOO_LONG.into())
        );
        assert_eq!(member(&lines[1], "type"), Json::Str("result".into()));
        // An over-long final line that never ends is answered exactly once.
        let out = SharedBuf::default();
        d.serve_connection(Cursor::new(vec![b'{'; 2 << 20]), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(
            member(&lines[0], "code"),
            Json::Str(codes::LINE_TOO_LONG.into())
        );
        d.join();
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_a_bad_request_and_the_connection_survives() {
        // Regression: `read_line` failed with `InvalidData`, which dropped
        // the client without a reply.
        let d = daemon(1);
        let out = SharedBuf::default();
        let mut mix = b"{\"op\":\"status\xff\"}\n".to_vec();
        mix.extend_from_slice(RELU_SUBMIT.as_bytes());
        d.serve_connection(Cursor::new(mix), out.clone());
        let lines = out.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            member(&lines[0], "code"),
            Json::Str(codes::BAD_REQUEST.into())
        );
        assert_eq!(member(&lines[1], "type"), Json::Str("result".into()));
        d.join();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Arbitrary byte lines, mostly not UTF-8: each non-blank line gets
        /// exactly one reply, and a `status` request after them is still
        /// answered.
        #[test]
        fn every_request_line_gets_exactly_one_reply(
            lines in proptest::collection::vec(proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48), 1..12),
        ) {
            let lines: Vec<Vec<u8>> = lines
                .into_iter()
                .map(|l| l.into_iter().map(|b| if b == b'\n' { b'?' } else { b }).collect())
                .collect();
            let non_blank = lines.iter().filter(|l| !l.trim_ascii().is_empty()).count();
            let mut mix = lines.join(&b'\n');
            mix.extend_from_slice(b"\n{\"op\":\"status\"}");
            let d = daemon(1);
            let out = SharedBuf::default();
            d.serve_connection(Cursor::new(mix), out.clone());
            d.join();
            let replies = out.lines();
            proptest::prop_assert_eq!(replies.len(), non_blank + 1);
            proptest::prop_assert_eq!(
                member(replies.last().expect("at least one reply"), "type"),
                Json::Str("status".into())
            );
        }
    }

    /// A unit-scale submit, parsed from its wire form like a client's.
    fn bare_submit(id: &str, priority: u64) -> Submit {
        let line = format!(
            r#"{{"op":"submit","id":"{id}","benchmark":"RELU","policy":"naive","scale":"unit","priority":{priority}}}"#
        );
        match Request::parse(&line) {
            Ok(Request::Submit(s)) => s,
            other => panic!("`{line}` is not a submit: {other:?}"),
        }
    }

    /// One client of the scheduler model: its channel and what it has seen.
    struct ModelClient {
        cid: u64,
        rx: mpsc::Receiver<String>,
        connected: bool,
        /// Ids of accepted submits, in submission order.
        accepted: Vec<String>,
        /// Ids submitted and not yet cancelled or completed.
        live: BTreeSet<String>,
        /// Cancels and completions filed while connected.
        finished: usize,
        /// Lines received on the channel.
        received: Vec<String>,
    }

    impl ModelClient {
        /// Takes every line sent so far and checks that the lines are the
        /// final answers of the accepted submits, one each, in submission
        /// order.
        fn receive(&mut self) {
            self.received.extend(self.rx.try_iter());
            assert!(
                self.received.len() <= self.accepted.len(),
                "{:?}",
                self.received
            );
            for (line, id) in self.received.iter().zip(&self.accepted) {
                assert!(
                    *line == format!("result {id}") || *line == proto::cancelled_line(id),
                    "line `{line}` where the answer to `{id}` belongs: {:?} for {:?}",
                    self.received,
                    self.accepted
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Drives `SchedState` alone, single-threaded, through random
        /// submits, cancels, picks, completions, abrupt disconnects and a
        /// shutdown over 1–3 clients, then runs every remaining job.
        #[test]
        fn scheduler_answers_every_submit_once_in_order(
            clients in 1usize..4,
            ops in proptest::collection::vec((0u8..11, 0usize..3, 0u64..4), 1..80),
        ) {
            let mut st = SchedState::new();
            let mut model: Vec<ModelClient> = (0..clients)
                .map(|_| {
                    let (tx, rx) = mpsc::channel();
                    ModelClient {
                        cid: st.register(tx),
                        rx,
                        connected: true,
                        accepted: Vec::new(),
                        live: BTreeSet::new(),
                        finished: 0,
                        received: Vec::new(),
                    }
                })
                .collect();
            // Picked and not yet completed: (client index, seq, id).
            let mut inflight: Vec<(usize, u64, String)> = Vec::new();
            // Results filed after their client disconnected, and results
            // still in the reorder buffer when it did.
            let (mut dropped_inflight, mut dropped_buffered) = (0usize, 0usize);
            let complete = |st: &mut SchedState, model: &mut [ModelClient], (i, seq, id): (usize, u64, String), dropped: &mut usize| {
                st.complete(model[i].cid, seq, &id, format!("result {id}"));
                let m = &mut model[i];
                if m.connected {
                    m.live.remove(&id);
                    m.finished += 1;
                } else {
                    *dropped += 1;
                }
            };
            for (kind, who, arg) in ops {
                let i = who % clients;
                let id = format!("j{arg}");
                match kind {
                    0..=3 if model[i].connected => {
                        let rejected = st.shutting_down || model[i].live.contains(&id);
                        let outcome = st.submit(model[i].cid, bare_submit(&id, arg));
                        proptest::prop_assert_eq!(outcome.is_err(), rejected);
                        if outcome.is_ok() {
                            model[i].accepted.push(id.clone());
                            model[i].live.insert(id);
                        }
                    }
                    4 if model[i].connected => {
                        let queued = model[i].live.contains(&id)
                            && !inflight.iter().any(|(j, _, f)| *j == i && *f == id);
                        let outcome = st.cancel(model[i].cid, &id);
                        proptest::prop_assert_eq!(outcome.is_ok(), queued);
                        if queued {
                            model[i].live.remove(&id);
                            model[i].finished += 1;
                        }
                    }
                    5 | 6 => {
                        if let Some((cid, job)) = st.pick() {
                            let j = model.iter().position(|m| m.cid == cid).expect("picked a registered client");
                            proptest::prop_assert!(model[j].connected, "picked a job of a disconnected client");
                            inflight.push((j, job.seq, job.submit.id));
                        }
                    }
                    7 | 8 if !inflight.is_empty() => {
                        let job = inflight.remove(arg as usize % inflight.len());
                        complete(&mut st, &mut model, job, &mut dropped_inflight);
                    }
                    9 if model[i].connected => {
                        model[i].receive();
                        let dropped = st.disconnect(model[i].cid);
                        let mut dropped: Vec<String> = dropped.into_iter().map(|j| j.submit.id).collect();
                        dropped.sort();
                        let mut queued: Vec<String> = model[i]
                            .live
                            .iter()
                            .filter(|id| !inflight.iter().any(|(j, _, f)| *j == i && f == *id))
                            .cloned()
                            .collect();
                        queued.sort();
                        proptest::prop_assert_eq!(dropped, queued);
                        dropped_buffered += model[i].finished - model[i].received.len();
                        model[i].connected = false;
                    }
                    10 => st.shutting_down = true,
                    _ => {}
                }
                for m in model.iter_mut().filter(|m| m.connected) {
                    m.receive();
                }
            }
            // Shutdown's drain: run everything still queued, completing each
            // round's jobs newest first so the reorder buffer has work.
            loop {
                while let Some((cid, job)) = st.pick() {
                    let j = model.iter().position(|m| m.cid == cid).expect("picked a registered client");
                    inflight.push((j, job.seq, job.submit.id));
                }
                let Some(job) = inflight.pop() else { break };
                complete(&mut st, &mut model, job, &mut dropped_inflight);
            }
            proptest::prop_assert!(st.idle());
            let mut lines = 0;
            for m in &mut model {
                if m.connected {
                    m.receive();
                    proptest::prop_assert_eq!(m.received.len(), m.accepted.len());
                } else {
                    proptest::prop_assert!(
                        matches!(m.rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)),
                        "a disconnected client's channel got a line or kept its sender"
                    );
                }
                lines += m.received.len();
            }
            proptest::prop_assert_eq!(st.completed as usize, lines + dropped_inflight + dropped_buffered);
        }
    }
}
