//! The `hdpat-sim serve` daemon: a long-running simulation service.
//!
//! Clients connect (Unix socket, stdio, or any `BufRead`/`Write` pair in
//! tests), send newline-delimited JSON requests ([`super::proto`]), and
//! receive newline-delimited responses. The daemon:
//!
//! * schedules submits onto a [`wsg_sim::pool::TaskPool`] of simulation
//!   workers with **per-client fairness and priorities** — among the
//!   head-of-queue jobs of all clients, the highest priority runs first,
//!   ties going to the least-recently-scheduled client (so one chatty
//!   client cannot starve the others), FIFO within a client;
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use wsg_sim::pool::{Task, TaskPool};

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

/// A writer shared between the connection thread (control responses,
/// progress events) and the pool workers (ordered result flushes). The
/// mutex makes every line write atomic.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

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
    writer: SharedWriter,
    /// Submits waiting for a worker, in submission order.
    queue: VecDeque<Job>,
    /// Scheduler tick at which this client last got a worker (fairness
    /// tie-break: the smallest value wins).
    last_scheduled: u64,
    /// Next submission sequence number.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_release: u64,
    /// Completed responses waiting for their turn (the reorder buffer).
    ready: BTreeMap<u64, String>,
    /// In-order lines ready to write; drained by the single active flusher.
    outbox: VecDeque<String>,
    /// Whether some thread is currently draining `outbox` to the writer.
    flushing: bool,
    /// Ids submitted but not yet answered (duplicate detection + cancel
    /// lookup).
    live: BTreeSet<String>,
    /// The connection died abruptly (reader error, not an orderly EOF).
    /// No response can ever be delivered again: queued jobs are dropped at
    /// disconnect and the entry lingers only while `inflight > 0`, so
    /// running jobs can account against it before it is reaped.
    gone: bool,
    /// Jobs picked by a pool worker and not yet finished.
    inflight: u64,
}

/// Scheduler state under the daemon's one mutex.
struct SchedState {
    clients: BTreeMap<u64, Client>,
    next_client: u64,
    /// Monotonic scheduling counter feeding `Client::last_scheduled`.
    tick: u64,
    /// Jobs currently executing on workers.
    running: u64,
    /// Responses released since the daemon started (results + cancels).
    completed: u64,
    shutting_down: bool,
    /// Runs completed after the shutdown request — the `drained` count of
    /// the ack.
    drained_runs: u64,
}

impl SchedState {
    fn queued(&self) -> u64 {
        self.clients.values().map(|c| c.queue.len() as u64).sum()
    }

    /// Picks the next job: highest priority among every client's queue
    /// front, ties to the least-recently-scheduled client, then to the
    /// lowest client id (BTreeMap order). FIFO within a client.
    fn pick(&mut self) -> Option<(u64, Job)> {
        let best = self
            .clients
            .iter()
            .filter_map(|(&cid, c)| {
                // `abandon` clears a gone client's queue under this same
                // lock, so the scheduler must never see one with work; the
                // filter below is belt-and-braces for release builds.
                debug_assert!(
                    !c.gone || c.queue.is_empty(),
                    "scheduler saw a disconnected client with queued jobs"
                );
                if c.gone {
                    return None;
                }
                c.queue
                    .front()
                    .map(|job| {
                        (
                            job.submit.priority,
                            std::cmp::Reverse(c.last_scheduled),
                            std::cmp::Reverse(cid),
                        )
                    })
                    .map(|rank| (rank, cid))
            })
            .max()
            .map(|(_, cid)| cid)?;
        let tick = self.tick;
        self.tick += 1;
        let client = match self.clients.get_mut(&best) {
            Some(c) => c,
            None => unreachable!("picked client vanished under the lock"),
        };
        client.last_scheduled = tick;
        client.inflight += 1;
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

    /// Files `line` as the response occupying `seq` of client `cid` and
    /// moves every now-releasable response to the outbox. Returns whether
    /// anything became flushable.
    fn finish(&mut self, cid: u64, seq: u64, id: &str, line: String) -> bool {
        self.completed += 1;
        let Some(client) = self.clients.get_mut(&cid) else {
            // The connection unregistered mid-run (reader thread died); the
            // result is still in the caches, only the response is dropped.
            return false;
        };
        client.live.remove(id);
        if client.gone {
            // Abrupt disconnect: the response has nowhere to go, and it
            // must not sit in the reorder buffer forever (earlier seqs of
            // a gone client will never release it). The result itself is
            // already in the caches.
            return false;
        }
        client.ready.insert(seq, line);
        let mut moved = false;
        while let Some(line) = client.ready.remove(&client.next_release) {
            client.outbox.push_back(line);
            client.next_release += 1;
            moved = true;
        }
        moved
    }

    /// [`SchedState::finish`] for a pool-executed job: accounts the
    /// in-flight slot taken in [`SchedState::pick`] and reaps the client if
    /// the disconnect teardown was waiting on this job.
    fn finish_run(&mut self, cid: u64, seq: u64, id: &str, line: String) -> bool {
        if let Some(c) = self.clients.get_mut(&cid) {
            debug_assert!(c.inflight > 0, "finish_run without a matching pick");
            c.inflight = c.inflight.saturating_sub(1);
        }
        let moved = self.finish(cid, seq, id, line);
        self.reap(cid);
        moved
    }

    /// Removes a gone client once its last in-flight job has finished —
    /// the deferred half of [`Shared::abandon`].
    fn reap(&mut self, cid: u64) {
        if self
            .clients
            .get(&cid)
            .is_some_and(|c| c.gone && c.inflight == 0)
        {
            self.clients.remove(&cid);
        }
    }
}

/// State shared between connection threads and pool workers.
struct Shared {
    state: Mutex<SchedState>,
    /// Wakes workers when jobs arrive or shutdown begins.
    work: Condvar,
    /// Wakes drain waiters (EOF, shutdown) when responses complete/flush.
    drained: Condvar,
    /// The run store: memory in front of the optional disk cache.
    cache: RunCache,
    /// Request-lifecycle metrics for this daemon instance ([`crate::ops`]).
    ops: OpsRegistry,
    /// Structured JSONL ops log, when configured.
    ops_log: Option<OpsLog>,
    /// Pool worker count (the `workers` gauge).
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

impl Shared {
    fn is_shutting_down(&self) -> bool {
        lock(&self.state).shutting_down
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

    /// Writes one line immediately (control responses, progress events).
    fn write_now(writer: &SharedWriter, line: &str) {
        let mut w = lock(writer);
        // A failed write means the client is gone; its jobs still complete
        // and populate the caches.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }

    fn writer_of(&self, cid: u64) -> Option<SharedWriter> {
        lock(&self.state)
            .clients
            .get(&cid)
            .map(|c| Arc::clone(&c.writer))
    }

    /// Drains `cid`'s outbox to its writer, preserving order. Only one
    /// thread flushes a client at a time; concurrent completers hand their
    /// lines to the active flusher via the outbox.
    fn flush_client(&self, cid: u64) {
        {
            let mut st = lock(&self.state);
            let Some(c) = st.clients.get_mut(&cid) else {
                return;
            };
            if c.flushing {
                return; // the active flusher will pick our lines up
            }
            c.flushing = true;
        }
        loop {
            let (writer, batch) = {
                let mut st = lock(&self.state);
                let Some(c) = st.clients.get_mut(&cid) else {
                    return;
                };
                if c.outbox.is_empty() {
                    c.flushing = false;
                    drop(st);
                    // Drain waiters check "outbox empty and not flushing".
                    self.drained.notify_all();
                    return;
                }
                (Arc::clone(&c.writer), std::mem::take(&mut c.outbox))
            };
            let mut w = lock(&writer);
            for line in batch {
                let _ = writeln!(w, "{line}");
            }
            let _ = w.flush();
        }
    }

    /// Executes one job on a pool worker: resolve from the caches or
    /// simulate, then release the result through the reorder buffer.
    fn execute(self: &Arc<Self>, cid: u64, job: Job) {
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
                let writer = submit.progress.then(|| self.writer_of(cid)).flatten();
                let progress = |stage: &str| {
                    if let Some(w) = &writer {
                        Self::write_now(w, &proto::progress_line(&submit.id, stage));
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
        {
            let mut st = lock(&self.state);
            st.running -= 1;
            if st.shutting_down {
                st.drained_runs += 1;
            }
            st.finish_run(cid, seq, &submit.id, line);
        }
        self.drained.notify_all();
        self.flush_client(cid);
    }

    /// The `TaskPool` fetch hook: blocks until a job is schedulable, or
    /// returns `None` (retiring the worker) once the daemon is shutting
    /// down and nothing is queued.
    fn fetch(self: &Arc<Self>) -> Option<Task> {
        let mut st = lock(&self.state);
        loop {
            if let Some((cid, job)) = st.pick() {
                st.running += 1;
                let shared = Arc::clone(self);
                return Some(Box::new(move || shared.execute(cid, job)));
            }
            if st.shutting_down {
                return None;
            }
            st = match self.work.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn register(&self, writer: Box<dyn Write + Send>) -> u64 {
        let mut st = lock(&self.state);
        let cid = st.next_client;
        st.next_client += 1;
        st.clients.insert(
            cid,
            Client {
                writer: Arc::new(Mutex::new(writer)),
                queue: VecDeque::new(),
                last_scheduled: 0,
                next_seq: 0,
                next_release: 0,
                ready: BTreeMap::new(),
                outbox: VecDeque::new(),
                flushing: false,
                live: BTreeSet::new(),
                gone: false,
                inflight: 0,
            },
        );
        cid
    }

    /// Blocks until every submit of `cid` has been answered and written.
    fn drain_client(&self, cid: u64) {
        let mut st = lock(&self.state);
        loop {
            let Some(c) = st.clients.get(&cid) else {
                return;
            };
            if c.next_release == c.next_seq && c.outbox.is_empty() && !c.flushing {
                return;
            }
            st = match self.drained.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn unregister(&self, cid: u64) {
        lock(&self.state).clients.remove(&cid);
    }

    /// Tears down client `cid` after an abrupt connection error (the
    /// counterpart of the orderly `drain_client` + `unregister` path).
    /// Queued jobs are dropped before any worker wastes a slot on them,
    /// buffered responses are discarded (the socket is dead), and the
    /// entry itself is reaped — immediately if idle, otherwise by
    /// [`SchedState::finish_run`] when the last in-flight job completes.
    fn abandon(&self, cid: u64) {
        let dropped = {
            let mut st = lock(&self.state);
            let Some(c) = st.clients.get_mut(&cid) else {
                return;
            };
            c.gone = true;
            let dropped = std::mem::take(&mut c.queue);
            c.ready.clear();
            c.outbox.clear();
            c.live.clear();
            st.reap(cid);
            dropped
        };
        // A shutdown drain may be blocked on this client's queued jobs or
        // unflushed outbox, both of which just vanished.
        self.drained.notify_all();
        // Dropped-at-disconnect jobs terminate in the client-gone tier
        // (in-flight ones still finish and count under their real source).
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
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &e.to_line());
                }
                return Flow::Continue;
            }
        };
        match request {
            Request::Submit(submit) => self.handle_submit(cid, submit),
            Request::Status => {
                let line = proto::status_line(&self.gauge_sample());
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &line);
                }
                Flow::Continue
            }
            Request::CacheStats => {
                let line = proto::cache_stats_line(&self.gauge_sample());
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &line);
                }
                Flow::Continue
            }
            Request::Metrics => {
                let line = self.ops.snapshot_json(&self.gauge_sample()).to_line();
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &line);
                }
                Flow::Continue
            }
            Request::Cancel { id } => {
                self.handle_cancel(cid, &id);
                Flow::Continue
            }
            Request::Shutdown => {
                self.handle_shutdown(cid);
                Flow::Stop
            }
        }
    }

    fn handle_submit(&self, cid: u64, submit: Submit) -> Flow {
        #[expect(
            clippy::disallowed_methods,
            reason = "enqueue stamp for queue-wait latency; ops observability only, never reaches simulation state"
        )]
        let enqueued = Instant::now();
        let accepted = {
            let mut st = lock(&self.state);
            if st.shutting_down {
                Err(proto::error_line(
                    Some(&submit.id),
                    codes::SHUTTING_DOWN,
                    "daemon is draining; resubmit to the next instance",
                ))
            } else {
                let Some(c) = st.clients.get_mut(&cid) else {
                    return Flow::Stop;
                };
                if c.live.contains(&submit.id) {
                    Err(proto::error_line(
                        Some(&submit.id),
                        codes::DUPLICATE_ID,
                        &format!("id `{}` is still in flight on this connection", submit.id),
                    ))
                } else {
                    c.live.insert(submit.id.clone());
                    let seq = c.next_seq;
                    c.next_seq += 1;
                    let id = submit.id.clone();
                    c.queue.push_back(Job {
                        seq,
                        submit,
                        enqueued,
                        scheduled: None,
                    });
                    Ok((seq, id))
                }
            }
        };
        match accepted {
            Err(line) => {
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &line);
                }
            }
            Ok((seq, id)) => {
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
        Flow::Continue
    }

    fn handle_cancel(&self, cid: u64, id: &str) {
        let outcome = {
            let mut st = lock(&self.state);
            let Some(c) = st.clients.get_mut(&cid) else {
                return;
            };
            match c.queue.iter().position(|j| j.submit.id == id) {
                Some(pos) => {
                    let job = match c.queue.remove(pos) {
                        Some(j) => j,
                        None => unreachable!("position() index out of queue range"),
                    };
                    let enqueued = job.enqueued;
                    st.finish(cid, job.seq, id, proto::cancelled_line(id));
                    Ok(enqueued)
                }
                None => Err(proto::error_line(
                    Some(id),
                    codes::NOT_FOUND,
                    &format!("id `{id}` is not queued here"),
                )),
            }
        };
        match outcome {
            Err(line) => {
                if let Some(w) = self.writer_of(cid) {
                    Self::write_now(&w, &line);
                }
            }
            Ok(enqueued) => {
                self.record_terminal("cancel", Tier::Cancelled, cid, id, enqueued, None);
                self.flush_client(cid);
            }
        }
    }

    /// Shutdown: stop intake, wake the workers so they drain and retire,
    /// wait until everything queued/running is answered *and written*, then
    /// acknowledge.
    fn handle_shutdown(&self, cid: u64) {
        {
            let mut st = lock(&self.state);
            st.shutting_down = true;
        }
        self.work.notify_all();
        let drained = {
            let mut st = lock(&self.state);
            loop {
                let busy = st.queued() > 0
                    || st.running > 0
                    || st
                        .clients
                        .get(&cid)
                        .is_some_and(|c| c.flushing || !c.outbox.is_empty());
                if !busy {
                    break st.drained_runs;
                }
                st = match self.drained.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        self.log_event("shutdown", &[("drained", Json::U64(drained))]);
        if let Some(w) = self.writer_of(cid) {
            Self::write_now(&w, &proto::shutdown_ack_line(drained));
        }
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
        if let Some(w) = self.writer_of(cid) {
            Self::write_now(&w, &proto::error_line(None, code, message));
        }
    }

    /// Reads requests from `reader` until EOF, a `shutdown`, or (for
    /// sockets with a read timeout) the daemon shutting down underneath an
    /// idle connection; then waits for this client's results to drain and
    /// unregisters it. Every non-blank line gets exactly one reply, and no
    /// more than [`proto::MAX_LINE_BYTES`] of a line is ever buffered.
    fn serve_connection<R: BufRead>(
        self: &Arc<Self>,
        mut reader: R,
        writer: Box<dyn Write + Send>,
    ) {
        let cid = self.register(writer);
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
                    // Abrupt disconnect (reset, broken pipe, ...): unlike
                    // the orderly EOF path below, nothing can be written
                    // back, so don't wait for queued work — drop it.
                    self.abandon(cid);
                    return;
                }
            }
        }
        self.drain_client(cid);
        self.unregister(cid);
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
    pool: Option<TaskPool>,
    /// Periodic metrics dump destination, re-written one final time at
    /// [`Daemon::join`] so the file always ends on post-drain totals.
    metrics_out: Option<PathBuf>,
    /// The periodic `--metrics-interval` dump thread, if configured.
    dump: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Builds the daemon: opens the disk cache (when configured), opens the
    /// ops log / metrics dump (when configured), and spawns the simulation
    /// worker pool.
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
            state: Mutex::new(SchedState {
                clients: BTreeMap::new(),
                next_client: 0,
                tick: 1,
                running: 0,
                completed: 0,
                shutting_down: false,
                drained_runs: 0,
            }),
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
        let for_pool = Arc::clone(&shared);
        let pool = TaskPool::new(jobs, move || for_pool.fetch());
        let dump = match (&config.metrics_out, config.metrics_interval) {
            (Some(path), Some(secs)) => {
                let path = path.clone();
                let shared = Arc::clone(&shared);
                Some(wsg_sim::pool::spawn_detached("hdpat-metrics-dump", {
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
            pool: Some(pool),
            metrics_out: config.metrics_out.clone(),
            dump,
        })
    }

    /// Simulation worker count.
    pub fn jobs(&self) -> usize {
        self.pool.as_ref().map_or(0, TaskPool::workers)
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
                    handlers.push(wsg_sim::pool::spawn_detached(
                        "hdpat-serve-conn",
                        move || {
                            shared.serve_connection(reader, Box::new(stream));
                        },
                    ));
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
    /// the worker pool, so every in-flight run finishes first.
    pub fn join(mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutting_down = true;
        }
        self.shared.work.notify_all();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        if let Some(dump) = self.dump.take() {
            let _ = dump.join();
        }
        // Final dump after the pool drained, so the file on disk always ends
        // on totals that include every completed request.
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
        // The client record disappears as soon as its in-flight job (if
        // any) completes; bounded poll so a regression fails, not hangs.
        let mut tries = 0;
        while !lock(&d.shared.state).clients.is_empty() {
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
}
