//! The long-lived service: accept loop, router, worker pool, and
//! graceful shutdown.
//!
//! [`Server::start`] binds a [`std::net::TcpListener`], spawns the
//! configured worker pool plus one accept thread, and returns
//! immediately; [`Server::wait`] blocks until shutdown is requested
//! (via [`ServerHandle::request_shutdown`] or `POST /v1/shutdown`) and
//! then **drains**: the listener stops accepting, workers finish every
//! job already admitted to the queue, and in-flight connections get
//! their responses before the call returns. Nothing admitted is ever
//! dropped silently — backpressure is always an explicit `503` with
//! `Retry-After`.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbp_util::json::Json;

use crate::api::{ApiError, Work};
use crate::cache::ResultCache;
use crate::http;
use crate::jobs::{prune_terminal, Job, JobQueue, JobState, PushError};
use crate::stats::ServeStats;
use crate::store::ResultStore;
use crate::wire;
use crate::ServeConfig;

/// Completed/failed jobs kept for polling before the registry is
/// pruned (oldest first).
const JOB_RETENTION: usize = 4096;

/// Socket read/write timeout for request handling.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub(crate) struct State {
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: JobQueue,
    /// Submitted jobs by id, for `/v1/jobs/<id>`; ids are monotone, so
    /// the oldest come first.
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    cache: ResultCache,
    /// Durable result tier under the RAM cache (`--store-dir`).
    store: Option<ResultStore>,
    stats: ServeStats,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    active_conns: AtomicU64,
}

/// A running service instance bound to a local address.
pub struct Server {
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable shutdown/introspection handle onto a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Requests graceful shutdown (idempotent): stop accepting, drain
    /// the queue, answer in-flight requests.
    pub fn request_shutdown(&self) {
        request_shutdown(&self.state);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::Relaxed)
    }
}

fn request_shutdown(state: &State) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already requested
    }
    rbp_trace::counter("serve.shutdown_requested", 1);
    // Poke the accept loop out of its blocking accept().
    let _ = TcpStream::connect_timeout(&state.addr, Duration::from_secs(1));
}

impl Server {
    /// Binds `cfg.addr`, spawns the worker pool and the accept thread,
    /// and returns the running server. When `cfg.store_dir` is set the
    /// persistent store is opened (recovering any torn tail and
    /// compacting) and its newest entries are preloaded into the RAM
    /// cache, so a restarted server answers previously-solved
    /// instances as cache hits immediately.
    ///
    /// # Errors
    /// Propagates bind failures and store open/recovery failures.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let cache = ResultCache::new(cfg.cache_cap);
        let store = match &cfg.store_dir {
            Some(dir) => {
                let store = ResultStore::open(std::path::Path::new(dir), cfg.store_cap_bytes)?;
                let warmed = store.warm(&cache, cfg.cache_cap);
                rbp_trace::counter("serve.store.opened", 1);
                if warmed > 0 {
                    rbp_trace::counter("serve.store.warm_boot", 1);
                }
                Some(store)
            }
            None => None,
        };
        let state = Arc::new(State {
            queue: JobQueue::new(cfg.queue_cap.max(1)),
            jobs: Mutex::new(BTreeMap::new()),
            cache,
            store,
            stats: ServeStats::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            active_conns: AtomicU64::new(0),
            addr,
            cfg,
        });

        let workers = (0..workers_n)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("rbp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("rbp-serve-accept".into())
                .spawn(move || accept_loop(&listener, &state))
                .expect("spawn accept thread")
        };

        Ok(Server {
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound local address (useful with `addr: "127.0.0.1:0"`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A cloneable handle for requesting shutdown from elsewhere.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Blocks until shutdown is requested, then drains and joins every
    /// thread: the accept loop exits, workers finish the admitted
    /// backlog, and in-flight connections get their responses.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // No new jobs can arrive (accept loop is gone and submissions
        // check the shutdown flag); let workers drain the backlog.
        self.state.queue.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Give in-flight connection handlers a moment to flush.
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.state.active_conns.load(Ordering::Relaxed) > 0 && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        rbp_trace::counter("serve.drained", 1);
    }

    /// [`ServerHandle::request_shutdown`] + [`Server::wait`] in one
    /// call, for tests and in-process harnesses.
    pub fn shutdown(self) {
        self.handle().request_shutdown();
        self.wait();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                state.active_conns.fetch_add(1, Ordering::Relaxed);
                let state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("rbp-serve-conn".into())
                    .spawn(move || {
                        handle_connection(&state, stream);
                        state.active_conns.fetch_sub(1, Ordering::Relaxed);
                    });
            }
            Err(_) => {
                if state.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
    }
}

/// One response: status, body, optional extra headers.
struct Reply {
    status: u16,
    body: Json,
    retry_after: Option<u64>,
}

impl Reply {
    fn ok(body: Json) -> Reply {
        Reply {
            status: 200,
            body,
            retry_after: None,
        }
    }

    fn error(status: u16, msg: &str) -> Reply {
        Reply {
            status,
            body: Json::obj([
                ("error", Json::from(msg)),
                ("status", Json::from(u64::from(status))),
            ]),
            retry_after: None,
        }
    }
}

fn handle_connection(state: &Arc<State>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));

    // Protocol negotiation: a binary client's first 4 bytes are the
    // preamble "RBP\x01", which no HTTP request can start with (methods
    // are ASCII uppercase). Sniff at most 4 bytes, bailing out of the
    // sniff as soon as the bytes diverge from the preamble, and hand
    // whatever was consumed to the HTTP parser.
    let mut sniffed = [0u8; 4];
    let mut n = 0usize;
    while n < sniffed.len() && sniffed[..n] == wire::PREAMBLE[..n] {
        use std::io::Read as _;
        match stream.read(&mut sniffed[n..]) {
            Ok(0) | Err(_) => break,
            Ok(got) => n += got,
        }
    }
    if sniffed[..n] == wire::PREAMBLE {
        handle_binary_connection(state, &mut stream);
        return;
    }

    let reply = match http::read_request(&mut stream, &sniffed[..n], state.cfg.max_body_bytes) {
        Ok(req) => {
            state.stats.accepted.fetch_add(1, Ordering::Relaxed);
            rbp_trace::counter("serve.http.accepted", 1);
            route(state, &req)
        }
        Err(e) => Reply::error(e.status, &e.msg),
    };
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = reply.retry_after {
        extra.push(("retry-after", secs.to_string()));
    }
    let _ = http::write_response(&mut stream, reply.status, &extra, &reply.body.render());
}

/// One persistent binary-protocol connection: acknowledge the
/// preamble, then answer request frames until the client hangs up.
fn handle_binary_connection(state: &Arc<State>, stream: &mut TcpStream) {
    use std::io::Write as _;
    // Frames are small and strictly request/response; Nagle would add
    // delayed-ACK stalls to every exchange.
    let _ = stream.set_nodelay(true);
    if stream.write_all(&wire::PREAMBLE).is_err() || stream.flush().is_err() {
        return;
    }
    rbp_trace::counter("serve.wire.conn", 1);
    while let Ok(Some(frame)) = wire::read_frame(stream, state.cfg.max_body_bytes) {
        state.stats.wire_requests.fetch_add(1, Ordering::Relaxed);
        rbp_trace::counter("serve.wire.request", 1);
        let reply = binary_reply(state, &frame);
        if wire::write_frame(stream, &reply).is_err() {
            break;
        }
    }
}

/// Maps one request frame to its response/error frame via the shared
/// submission path. Responses carry the result core **verbatim** —
/// the same bytes the cache holds and the HTTP envelope re-renders.
fn binary_reply(state: &Arc<State>, frame: &wire::Frame) -> wire::Frame {
    let (endpoint, body_text) = match frame.parse_request() {
        Ok(parts) => parts,
        Err(msg) => return wire::Frame::error(400, &msg),
    };
    if !matches!(
        endpoint,
        "solve" | "schedule" | "portfolio" | "bounds" | "generate"
    ) {
        return wire::Frame::error(404, &format!("no binary endpoint '{endpoint}'"));
    }
    let body = match Json::parse(body_text) {
        Ok(v) => v,
        Err(e) => return wire::Frame::error(400, &format!("body is not valid JSON: {e}")),
    };
    match submit(state, endpoint, &body, false) {
        Submitted::Answer { tag, core, .. } => wire::Frame::response(tag, &core),
        Submitted::Accepted { .. } => {
            wire::Frame::error(500, "async admission on a binary connection")
        }
        Submitted::TimedOut { deadline_ms, .. } => {
            wire::Frame::error(504, &format!("deadline of {deadline_ms} ms exceeded"))
        }
        Submitted::Refused { status, msg, .. } => wire::Frame::error(status, &msg),
    }
}

fn route(state: &Arc<State>, req: &http::Request) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => Reply::ok(Json::obj([
            ("status", Json::from("ok")),
            (
                "shutting_down",
                Json::from(state.shutdown.load(Ordering::Relaxed)),
            ),
        ])),
        ("GET", "/v1/stats") => Reply::ok(state.stats.to_json(
            state.queue.depth(),
            state.cfg.queue_cap,
            state.cfg.workers,
            &state.cache,
            state.store.as_ref(),
        )),
        ("POST", "/v1/shutdown") => {
            // The response races process teardown by design: flag first,
            // poke the accept loop, then answer on this still-open
            // connection (wait() lingers for active connections).
            request_shutdown(state);
            Reply::ok(Json::obj([("status", Json::from("draining"))]))
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => job_endpoint(state, path),
        (
            "POST",
            "/v1/solve" | "/v1/schedule" | "/v1/portfolio" | "/v1/bounds" | "/v1/generate",
        ) => {
            let endpoint = req.path.rsplit('/').next().unwrap_or_default();
            handle_submit(state, endpoint, req)
        }
        ("GET" | "POST", _) => Reply::error(404, &format!("no route for {}", req.path)),
        _ => Reply::error(405, &format!("method {} not allowed", req.method)),
    }
}

/// `GET /v1/jobs/<id>` (status) and `GET /v1/jobs/<id>/result`.
fn job_endpoint(state: &Arc<State>, path: &str) -> Reply {
    let rest = &path["/v1/jobs/".len()..];
    let (id_str, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Reply::error(400, &format!("bad job id '{id_str}'"));
    };
    let job = state.jobs.lock().unwrap().get(&id).cloned();
    let Some(job) = job else {
        return Reply::error(404, &format!("unknown job {id} (pruned or never existed)"));
    };
    let st = job.state();
    if want_result {
        match st {
            JobState::Done(core) => Reply::ok(envelope("job", job.id, None, &core)),
            JobState::Failed(status, msg) => Reply::error(status, &msg),
            JobState::Queued | JobState::Running => Reply {
                status: 202,
                body: status_body(&job, &st),
                retry_after: Some(1),
            },
        }
    } else {
        Reply::ok(status_body(&job, &st))
    }
}

fn status_body(job: &Job, st: &JobState) -> Json {
    Json::obj([
        ("job", Json::from(job.id)),
        ("endpoint", Json::from(job.endpoint)),
        ("status", Json::from(st.name())),
        ("result", Json::from(format!("/v1/jobs/{}/result", job.id))),
    ])
}

/// Wraps a result core into the response envelope.
fn envelope(cache: &str, job_id: u64, elapsed_us: Option<u64>, core: &str) -> Json {
    let core = Json::parse(core).unwrap_or(Json::Null);
    let mut pairs = vec![
        ("cache".to_string(), Json::from(cache)),
        ("job".to_string(), Json::from(job_id)),
    ];
    if let Some(us) = elapsed_us {
        pairs.push(("elapsed_us".to_string(), Json::from(us)));
    }
    pairs.push(("result".to_string(), core));
    Json::Obj(pairs)
}

/// Outcome of one submission, transport-agnostic: the HTTP route wraps
/// it in the JSON envelope, the binary handler maps it to frames.
enum Submitted {
    /// A result is in hand (cache hit, store hit, or a completed
    /// synchronous job). `tag` is the wire cache tag; `core` the
    /// rendered result-core JSON, verbatim from cache/store/worker.
    Answer {
        tag: u8,
        job: u64,
        elapsed_us: u64,
        core: String,
    },
    /// Async admission: the job is queued, poll for the result.
    Accepted { job: u64 },
    /// Synchronous wait exceeded its deadline; the job may still
    /// finish and is pollable.
    TimedOut { job: u64, deadline_ms: u64 },
    /// The request never became a result (validation, backpressure…).
    Refused {
        status: u16,
        msg: String,
        retry_after: Option<u64>,
    },
}

impl Submitted {
    fn refused(status: u16, msg: impl Into<String>) -> Submitted {
        Submitted::Refused {
            status,
            msg: msg.into(),
            retry_after: None,
        }
    }

    fn backpressure(msg: impl Into<String>) -> Submitted {
        Submitted::Refused {
            status: 503,
            msg: msg.into(),
            retry_after: Some(1),
        }
    }
}

/// The shared submission path behind `POST /v1/<endpoint>` and binary
/// request frames: validate, probe the RAM cache then the persistent
/// store, and only then queue a job. `allow_async` gates
/// `"mode":"async"` (HTTP-only; a binary connection is already the
/// subscription channel).
fn submit(state: &Arc<State>, endpoint: &str, body: &Json, allow_async: bool) -> Submitted {
    let started = Instant::now();
    if state.shutdown.load(Ordering::Relaxed) {
        state.stats.rejected.fetch_add(1, Ordering::Relaxed);
        rbp_trace::counter("serve.http.rejected", 1);
        return Submitted::backpressure("server is draining");
    }

    // Envelope-level knobs: execution mode and deadline.
    let asynchronous = match body.get("mode").and_then(Json::as_str) {
        None | Some("sync") => false,
        Some("async") if allow_async => true,
        Some("async") => {
            return Submitted::refused(400, "async mode is not available on binary connections");
        }
        Some(other) => {
            return Submitted::refused(400, format!("mode '{other}' is not sync|async"));
        }
    };
    let deadline_ms = body
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .unwrap_or(state.cfg.default_deadline_ms)
        .clamp(1, 600_000);
    let deadline = started + Duration::from_millis(deadline_ms);

    let mut work = match Work::parse(endpoint, body) {
        Ok(w) => w,
        Err(ApiError { status, msg }) => return Submitted::refused(status, msg),
    };
    work.cap_threads(state.cfg.max_solve_threads);
    if let Some(threads) = work.solve_threads() {
        state.stats.record_solve_threads(threads);
    }
    let key = work.cache_key();

    // Content-addressed fast path: identical instances answer from the
    // RAM cache without ever touching the queue.
    if let Some(core) = state.cache.get(&key) {
        state.stats.record_latency(endpoint, elapsed_us(started));
        return Submitted::Answer {
            tag: wire::TAG_HIT,
            job: 0,
            elapsed_us: elapsed_us(started),
            core,
        };
    }
    // Durable second tier: a RAM-evicted (or pre-restart) result read
    // back from disk, promoted into the RAM cache on the way out.
    if let Some(store) = &state.store {
        if let Some(core) = store.get(&key) {
            state.cache.insert(&key, core.clone());
            state.stats.record_latency(endpoint, elapsed_us(started));
            return Submitted::Answer {
                tag: wire::TAG_STORE,
                job: 0,
                elapsed_us: elapsed_us(started),
                core,
            };
        }
    }

    let id = state.next_job.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::new(id, work, key, deadline));
    register_job(state, &job);

    match state.queue.push(Arc::clone(&job)) {
        Ok(depth) => {
            rbp_trace::gauge("serve.queue.depth", depth as f64);
        }
        Err(reason) => {
            state.jobs.lock().unwrap().remove(&id);
            state.stats.rejected.fetch_add(1, Ordering::Relaxed);
            rbp_trace::counter("serve.http.rejected", 1);
            return match reason {
                PushError::Full => Submitted::backpressure(format!(
                    "queue full ({} jobs waiting); retry shortly",
                    state.cfg.queue_cap
                )),
                PushError::ShuttingDown => Submitted::backpressure("server is draining"),
            };
        }
    }

    if asynchronous {
        return Submitted::Accepted { job: id };
    }

    match job.wait_until(deadline) {
        // Execution latency was recorded by the worker; the reply
        // carries the end-to-end time.
        JobState::Done(core) => Submitted::Answer {
            tag: wire::TAG_MISS,
            job: id,
            elapsed_us: elapsed_us(started),
            core,
        },
        JobState::Failed(status, msg) => Submitted::refused(status, msg),
        JobState::Queued | JobState::Running => {
            state.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            rbp_trace::counter("serve.http.timeout", 1);
            Submitted::TimedOut {
                job: id,
                deadline_ms,
            }
        }
    }
}

fn handle_submit(state: &Arc<State>, endpoint: &str, req: &http::Request) -> Reply {
    let Some(text) = req.body_str() else {
        return Reply::error(400, "body is not valid UTF-8");
    };
    let body = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Reply::error(400, &format!("body is not valid JSON: {e}")),
    };
    match submit(state, endpoint, &body, true) {
        Submitted::Answer {
            tag,
            job,
            elapsed_us,
            core,
        } => Reply::ok(envelope(wire::tag_name(tag), job, Some(elapsed_us), &core)),
        Submitted::Accepted { job } => Reply {
            status: 202,
            body: Json::obj([
                ("cache", Json::from("miss")),
                ("job", Json::from(job)),
                ("status", Json::from("queued")),
                ("poll", Json::from(format!("/v1/jobs/{job}"))),
                ("result", Json::from(format!("/v1/jobs/{job}/result"))),
            ]),
            retry_after: None,
        },
        Submitted::TimedOut { job, deadline_ms } => Reply {
            status: 504,
            body: Json::obj([
                (
                    "error",
                    Json::from(format!("deadline of {deadline_ms} ms exceeded")),
                ),
                ("status", Json::from(504u64)),
                ("job", Json::from(job)),
                ("poll", Json::from(format!("/v1/jobs/{job}"))),
            ]),
            retry_after: None,
        },
        Submitted::Refused {
            status,
            msg,
            retry_after,
        } => {
            let mut reply = Reply::error(status, &msg);
            reply.retry_after = retry_after;
            reply
        }
    }
}

fn register_job(state: &Arc<State>, job: &Arc<Job>) {
    let mut jobs = state.jobs.lock().unwrap();
    jobs.insert(job.id, Arc::clone(job));
    prune_terminal(&mut jobs, JOB_RETENTION);
}

fn worker_loop(state: &Arc<State>) {
    while let Some(job) = state.queue.pop() {
        rbp_trace::gauge("serve.queue.depth", state.queue.depth() as f64);
        if !job.claim() {
            continue;
        }
        if Instant::now() >= job.deadline {
            state.stats.failed.fetch_add(1, Ordering::Relaxed);
            rbp_trace::counter("serve.job.expired", 1);
            job.finish(JobState::Failed(
                504,
                "deadline exceeded while queued".to_string(),
            ));
            continue;
        }
        let span = rbp_trace::span_with(
            "serve.job",
            vec![
                ("endpoint", Json::from(job.endpoint)),
                ("job", Json::from(job.id)),
            ],
        );
        let started = Instant::now();
        // A panicking job fails alone: its worker lives on to take the
        // next one. `execute` touches no server state (the cache, the
        // store and the registry are updated after it returns), so a
        // panic leaves none half-updated. A sharded solve's panicking
        // thread re-panics here when it is joined.
        match catch_unwind(AssertUnwindSafe(|| job.work.execute())) {
            Err(panic) => {
                state.stats.failed.fetch_add(1, Ordering::Relaxed);
                rbp_trace::counter("serve.job.panicked", 1);
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                job.finish(JobState::Failed(
                    500,
                    format!("job {} panicked: {what}", job.id),
                ));
            }
            Ok(Ok(core)) => {
                let rendered = core.render();
                state.cache.insert(&job.cache_key, rendered.clone());
                // Persist before finishing the job: once a client has
                // seen the answer, a restart must still know it.
                if let Some(store) = &state.store {
                    store.append(&job.cache_key, &rendered);
                }
                state.stats.completed.fetch_add(1, Ordering::Relaxed);
                state
                    .stats
                    .record_latency(job.endpoint, elapsed_us(started));
                rbp_trace::counter("serve.job.completed", 1);
                job.finish(JobState::Done(rendered));
            }
            Ok(Err(ApiError { status, msg })) => {
                state.stats.failed.fetch_add(1, Ordering::Relaxed);
                rbp_trace::counter("serve.job.failed", 1);
                job.finish(JobState::Failed(status, msg));
            }
        }
        drop(span);
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_answers_500_and_keeps_its_worker() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            default_deadline_ms: 10_000,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let state = &server.state;
        // More panics than workers: had each panic killed its worker,
        // the last one would find none and time out.
        for _ in 0..3 {
            let Submitted::Refused { status, msg, .. } = submit(state, "panic", &Json::Null, true)
            else {
                panic!("a panicking job must be refused");
            };
            assert_eq!(status, 500);
            assert!(msg.starts_with("job ") && msg.contains("panicked"), "{msg}");
        }
        assert_eq!(state.stats.failed.load(Ordering::Relaxed), 3);
        assert!(
            server.workers.iter().all(|w| !w.is_finished()),
            "the pool is full"
        );
        let body =
            Json::parse(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#)
                .unwrap();
        let Submitted::Answer { core, .. } = submit(state, "solve", &body, true) else {
            panic!("the next request is answered");
        };
        assert!(core.contains("\"total\""), "{core}");
        server.shutdown();
    }
}
