//! The serve engine: admission control, worker pool, supervision.
//!
//! The engine is the daemon's core, built as a library so tests and
//! benches can drive it in-process (deterministically, without sockets).
//! Responsibilities, in request order:
//!
//! 1. **Admission** ([`ServeEngine::submit`]): validate, then apply the
//!    backpressure ladder against the bounded queue. The queue *never*
//!    grows past `queue_cap` — overload is answered, not buffered.
//! 2. **Journaling**: every admitted job is recorded (with its effective,
//!    post-degradation parameters) before it can run, so a `kill -9`
//!    replays the queue bit-identically on restart.
//! 3. **Execution**: workers pop jobs in admission order and run them
//!    under `catch_unwind`; a poisoned job becomes a typed
//!    `worker-fault` response, never a dead daemon.
//! 4. **Supervision**: a supervisor thread respawns any worker that
//!    dies anyway (counted in `serve.worker_restart`).
//!
//! ## The degradation ladder
//!
//! Load is `queued + in-flight` against `queue_cap`:
//!
//! | load    | behaviour                                                |
//! |---------|----------------------------------------------------------|
//! | < 50%   | everything admitted as requested                         |
//! | ≥ 50%   | `lint` jobs shed with a typed `shed` response            |
//! | ≥ 75%   | `check` default scopes shrunk (disclosed `scope-shrunk`) |
//! | = 100%  | typed `busy` + `retry_after_ms` (client backs off)       |
//!
//! Every step is disclosed: shed/busy are typed responses, scope
//! shrinking lands in the response's `degradation` array *and* in the
//! journal (so a replayed queue re-runs the degraded job, not the
//! original — admission decisions are part of the recorded history).

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_persist::PersistError;
use equitls_rewrite::budget::{panic_message, FaultPlan};

use crate::job;
use crate::journal::JobJournal;
use crate::proto::{self, JobKind, JobRequest};
use crate::warm::WarmState;

/// Worker stack size: prover obligations recurse deeply (case-split
/// trees), and with `jobs: 1` the obligation runs on the worker thread
/// itself — same sizing as `tls-prove`'s main thread.
const WORKER_STACK_BYTES: usize = 512 * 1024 * 1024;

/// Scope caps applied at degradation level 2 (load ≥ 75%).
const DEGRADED_MAX_STATES: usize = 20_000;
const DEGRADED_MAX_DEPTH: usize = 2;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` = manual mode: no threads are spawned and a
    /// test drives execution with [`ServeEngine::run_next_job`] —
    /// deterministic interleaving control for the kill-and-restart
    /// tests.
    pub workers: usize,
    /// Bound on `queued + in-flight` jobs; admission above it answers
    /// `busy`.
    pub queue_cap: usize,
    /// Journal snapshot path (`None` = in-memory journal: admission
    /// history kept, crash-resumability off).
    pub journal_path: Option<PathBuf>,
    /// Re-enqueue the journal's unfinished jobs on startup.
    pub resume: bool,
    /// The hint sent with `busy` responses.
    pub retry_after_ms: u64,
    /// Deterministic fault injection for the persist writers.
    pub fault_plan: Option<FaultPlan>,
    /// Admit test-only `panic` jobs.
    pub allow_test_jobs: bool,
    /// When set, `check` jobs spill cold visited-set shards under this
    /// directory (one `job<seq>` subdirectory per job) instead of
    /// truncating at a memory ceiling. See
    /// [`equitls_mc::explorer::ExploreConfig::spill_dir`].
    pub spill_dir: Option<PathBuf>,
    /// Resident-shard cap for spilling `check` jobs (`0` = pressure-only
    /// spilling).
    pub max_resident_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 32,
            journal_path: None,
            resume: false,
            retry_after_ms: 200,
            fault_plan: None,
            allow_test_jobs: false,
            spill_dir: None,
            max_resident_shards: 0,
        }
    }
}

/// The admission verdict for one submitted request.
#[derive(Debug, Clone)]
pub enum Admission {
    /// Journaled and queued; the response arrives via
    /// [`ServeEngine::wait_response`] or the results file.
    Accepted {
        /// The job's admission sequence number.
        seq: u64,
    },
    /// Queue full — the rendered `busy` response line.
    Busy {
        /// The stable `busy` response line.
        line: String,
    },
    /// Shed under overload — the rendered `shed` response line.
    Shed {
        /// The stable `shed` response line.
        line: String,
    },
    /// Invalid request — the rendered typed error line.
    Rejected {
        /// The stable error response line.
        line: String,
    },
}

struct EngineState {
    journal: JobJournal,
    queue: VecDeque<u64>,
    volatile: HashMap<u64, JsonValue>,
    in_flight: usize,
    draining: bool,
}

struct EngineInner {
    config: ServeConfig,
    warm: WarmState,
    obs: Obs,
    state: Mutex<EngineState>,
    work_cv: Condvar,
    done_cv: Condvar,
    restarts: AtomicU64,
}

/// The serve engine. Cheap to clone-share via [`Arc`]; the daemon holds
/// one and every connection thread submits through it.
pub struct ServeEngine {
    inner: Arc<EngineInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Recover from a poisoned lock: engine state is only mutated through
/// short, panic-free critical sections, and after a contained worker
/// panic the state is still consistent — refusing to serve would turn
/// one poisoned job into a dead daemon.
fn lock_state(inner: &EngineInner) -> MutexGuard<'_, EngineState> {
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServeEngine {
    /// Build an engine (loading or resuming the journal as configured)
    /// and spawn its workers and supervisor.
    ///
    /// # Errors
    ///
    /// A `resume` without a readable, valid journal snapshot — a typed
    /// error, never a silent fresh start (mirroring the prover ledger).
    pub fn start(config: ServeConfig, obs: Obs) -> Result<Arc<Self>, PersistError> {
        let journal = match (&config.journal_path, config.resume) {
            (Some(path), true) => JobJournal::load(path, config.fault_plan.clone(), &obs)?,
            (path, _) => JobJournal::new(path.clone(), config.fault_plan.clone()),
        };
        // Re-enqueue the unfinished suffix in admission order.
        let queue: VecDeque<u64> = journal
            .entries()
            .iter()
            .filter(|e| e.response.is_none())
            .map(|e| e.seq)
            .collect();
        let inner = Arc::new(EngineInner {
            config,
            warm: WarmState::new(),
            obs,
            state: Mutex::new(EngineState {
                journal,
                queue,
                volatile: HashMap::new(),
                in_flight: 0,
                draining: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            restarts: AtomicU64::new(0),
        });
        let engine = Arc::new(ServeEngine {
            inner: Arc::clone(&inner),
            threads: Mutex::new(Vec::new()),
        });
        if inner.config.workers > 0 {
            let mut threads = Vec::with_capacity(inner.config.workers + 1);
            let workers: Vec<_> = (0..inner.config.workers)
                .map(|i| spawn_worker(&inner, i))
                .collect();
            threads.push(spawn_supervisor(&inner, workers));
            *engine
                .threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = threads;
        }
        Ok(engine)
    }

    /// Submit one request: validate, apply the backpressure ladder,
    /// journal, queue. Never blocks on job execution.
    pub fn submit(&self, request: JobRequest) -> Admission {
        let inner = &self.inner;
        if let Err((code, message)) = job::validate(&request, inner.config.allow_test_jobs) {
            inner.obs.counter("serve.rejected", 1);
            return Admission::Rejected {
                line: proto::error_response(&request.id, &code, &message).to_string(),
            };
        }
        let mut state = lock_state(inner);
        let cap = inner.config.queue_cap.max(1);
        let depth = state.queue.len() + state.in_flight;
        if state.draining || depth >= cap {
            inner.obs.counter("serve.busy", 1);
            return Admission::Busy {
                line: proto::busy_response(&request.id, inner.config.retry_after_ms, depth, cap)
                    .to_string(),
            };
        }
        // Level 1 (load ≥ 50%): shed lint jobs — they are advisory
        // analyses, the cheapest work to refuse outright.
        if request.kind == JobKind::Lint && depth * 2 >= cap {
            inner.obs.counter("serve.shed", 1);
            return Admission::Shed {
                line: proto::shed_response(
                    &request.id,
                    &format!("lint shed under overload ({depth}/{cap} slots in use)"),
                )
                .to_string(),
            };
        }
        // Level 2 (load ≥ 75%): shrink check scopes. The *effective*
        // request is journaled, so a crash-replay re-runs the degraded
        // job — admission decisions are part of the recorded history.
        let mut effective = request;
        let mut degradation = Vec::new();
        if effective.kind == JobKind::Check && depth * 4 >= cap * 3 {
            let states = effective.max_states.unwrap_or(usize::MAX);
            let depth_limit = effective.max_depth.unwrap_or(usize::MAX);
            if states > DEGRADED_MAX_STATES || depth_limit > DEGRADED_MAX_DEPTH {
                effective.max_states = Some(states.min(DEGRADED_MAX_STATES));
                effective.max_depth = Some(depth_limit.min(DEGRADED_MAX_DEPTH));
                degradation.push("scope-shrunk".to_string());
                inner.obs.counter("serve.degraded", 1);
            }
        }
        let seq = state
            .journal
            .record_accept(effective, degradation, &inner.obs);
        state.queue.push_back(seq);
        inner.obs.counter("serve.accepted", 1);
        inner.obs.gauge(
            "serve.queue_depth",
            (state.queue.len() + state.in_flight) as f64,
        );
        drop(state);
        inner.work_cv.notify_one();
        Admission::Accepted { seq }
    }

    /// Block until job `seq` completes and return its wire response:
    /// the stable line with the volatile section (`stats`, `warm`,
    /// optional `events`) appended.
    pub fn wait_response(&self, seq: u64) -> String {
        let inner = &self.inner;
        let mut state = lock_state(inner);
        loop {
            let done = state
                .journal
                .entries()
                .get(seq as usize)
                .and_then(|e| e.response.clone());
            if let Some(line) = done {
                let volatile = state.volatile.get(&seq).cloned();
                return render_wire(&line, volatile);
            }
            state = inner
                .done_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The stable response line for `seq`, if completed (journal form,
    /// no volatile section) — what the results file contains.
    pub fn stable_response(&self, seq: u64) -> Option<String> {
        let state = lock_state(&self.inner);
        state
            .journal
            .entries()
            .get(seq as usize)
            .and_then(|e| e.response.clone())
    }

    /// The journal entry for `seq`, if admitted — the *effective*
    /// request (post-degradation) plus its completion state.
    pub fn journal_entry(&self, seq: u64) -> Option<crate::journal::JournalEntry> {
        let state = lock_state(&self.inner);
        state.journal.entries().get(seq as usize).cloned()
    }

    /// Manual mode: pop and execute one queued job on the calling
    /// thread. Returns `false` when the queue is empty. Panics inside
    /// the job are contained exactly as in worker threads.
    pub fn run_next_job(&self) -> bool {
        run_one(&self.inner).is_some()
    }

    /// Stop admitting, wait for the queue and in-flight jobs to finish,
    /// and release the workers. Idempotent.
    pub fn drain(&self) {
        let inner = &self.inner;
        {
            let mut state = lock_state(inner);
            state.draining = true;
        }
        inner.work_cv.notify_all();
        let mut state = lock_state(inner);
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = inner
                .done_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        inner.work_cv.notify_all();
    }

    /// [`drain`](Self::drain), then join every engine thread.
    pub fn shutdown(&self) {
        self.drain();
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in threads {
            let _ = handle.join();
        }
    }

    /// Write the results file: every completed job's stable response,
    /// one line per job, in admission order. Byte-identical between an
    /// interrupted-then-resumed queue and a straight-through one.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the underlying write.
    pub fn write_results(&self, path: &Path) -> std::io::Result<()> {
        let state = lock_state(&self.inner);
        let mut out = String::new();
        for line in state.journal.results_lines() {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(path, out)
    }

    /// Engine statistics as a stable-ordered JSON object (the `stats`
    /// control response).
    pub fn stats_json(&self) -> JsonValue {
        let inner = &self.inner;
        let state = lock_state(inner);
        let warm = inner.warm.stats();
        JsonValue::Object(vec![
            ("queue".to_string(), state.journal.summary_json()),
            (
                "queue_depth".to_string(),
                JsonValue::Number((state.queue.len() + state.in_flight) as f64),
            ),
            (
                "queue_cap".to_string(),
                JsonValue::Number(inner.config.queue_cap as f64),
            ),
            ("draining".to_string(), JsonValue::Bool(state.draining)),
            (
                "model_builds".to_string(),
                JsonValue::Number(warm.model_builds as f64),
            ),
            (
                "model_reuses".to_string(),
                JsonValue::Number(warm.model_reuses as f64),
            ),
            (
                "worker_restarts".to_string(),
                JsonValue::Number(inner.restarts.load(Ordering::Relaxed) as f64),
            ),
        ])
    }

    /// Worker restarts performed by the supervisor.
    pub fn worker_restarts(&self) -> u64 {
        self.inner.restarts.load(Ordering::Relaxed)
    }

    /// The warm state (for benches measuring cold vs. warm).
    pub fn warm(&self) -> &WarmState {
        &self.inner.warm
    }

    /// Whether a drain was requested.
    pub fn draining(&self) -> bool {
        lock_state(&self.inner).draining
    }
}

/// Append the volatile section to a stable response line for the wire.
fn render_wire(stable_line: &str, volatile: Option<JsonValue>) -> String {
    let Some(volatile) = volatile else {
        return stable_line.to_string();
    };
    match equitls_obs::json::parse(stable_line) {
        Ok(JsonValue::Object(mut fields)) => {
            fields.push(("volatile".to_string(), volatile));
            JsonValue::Object(fields).to_string()
        }
        _ => stable_line.to_string(),
    }
}

/// Pop one job and execute it. Returns the seq it ran and whether the
/// job asked to take its worker down (`kill_worker`), or `None` when the
/// queue was empty. Shared by worker threads and manual mode.
fn run_one(inner: &EngineInner) -> Option<(u64, bool)> {
    let (seq, entry) = {
        let mut state = lock_state(inner);
        let seq = state.queue.pop_front()?;
        let entry = state.journal.entries()[seq as usize].clone();
        state.in_flight += 1;
        (seq, entry)
    };
    let kills_worker = entry.request.kind == JobKind::Panic && entry.request.kill_worker;
    let was_warm = inner.warm.is_warm(entry.request.variant);
    let started = Instant::now();
    let trace_sink = entry
        .request
        .trace
        .then(|| Arc::new(equitls_obs::sink::RecordingSink::new()));
    let job_obs = match &trace_sink {
        Some(sink) => Obs::new(Arc::clone(sink) as Arc<dyn equitls_obs::sink::EventSink>),
        None => inner.obs.clone(),
    };
    let stable = match catch_unwind(AssertUnwindSafe(|| {
        job::execute(
            seq,
            &entry.request,
            &entry.degradation,
            &inner.warm,
            &job::SpillOptions {
                dir: inner.config.spill_dir.clone(),
                max_resident_shards: inner.config.max_resident_shards,
            },
            &job_obs,
        )
    })) {
        Ok(response) => response,
        Err(payload) => {
            inner.obs.counter("serve.worker_fault", 1);
            proto::error_response(
                &entry.request.id,
                "worker-fault",
                &format!("job panicked: {}", panic_message(&*payload)),
            )
        }
    };
    let mut volatile_fields = vec![
        (
            "duration_ms".to_string(),
            JsonValue::Number(started.elapsed().as_secs_f64() * 1e3),
        ),
        ("warm".to_string(), JsonValue::Bool(was_warm)),
    ];
    if let Some(sink) = &trace_sink {
        let events: Vec<JsonValue> = sink.timed_events().iter().map(|t| t.to_json()).collect();
        volatile_fields.push(("events".to_string(), JsonValue::Array(events)));
    }
    {
        let mut state = lock_state(inner);
        state
            .journal
            .record_done(seq, stable.to_string(), &inner.obs);
        state
            .volatile
            .insert(seq, JsonValue::Object(volatile_fields));
        state.in_flight -= 1;
        inner.obs.counter("serve.completed", 1);
    }
    inner.done_cv.notify_all();
    Some((seq, kills_worker))
}

fn spawn_worker(inner: &Arc<EngineInner>, index: usize) -> std::thread::JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("serve-worker-{index}"))
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || worker_loop(&inner))
        .expect("spawn serve worker")
}

fn worker_loop(inner: &EngineInner) {
    loop {
        {
            let mut state = lock_state(inner);
            while state.queue.is_empty() {
                if state.draining {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Test hook: a `panic` job with `kill_worker` completes with a
        // typed error, then takes its worker thread down — exercising
        // the supervisor's restart path end to end.
        if let Some((_, kills_worker)) = run_one(inner) {
            if kills_worker {
                return;
            }
        }
    }
}

fn spawn_supervisor(
    inner: &Arc<EngineInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
) -> std::thread::JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("serve-supervisor".to_string())
        .spawn(move || {
            let mut workers = workers;
            loop {
                std::thread::sleep(Duration::from_millis(25));
                let draining = lock_state(&inner).draining;
                if draining {
                    // Drain: let workers exit, join them, and stop.
                    inner.work_cv.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return;
                }
                for (i, handle) in workers.iter_mut().enumerate() {
                    if handle.is_finished() {
                        inner.obs.counter("serve.worker_restart", 1);
                        inner.restarts.fetch_add(1, Ordering::Relaxed);
                        let fresh = spawn_worker(&inner, i);
                        let dead = std::mem::replace(handle, fresh);
                        let _ = dead.join();
                    }
                }
            }
        })
        .expect("spawn serve supervisor")
}
