//! `serve`: the pebbling service under two closed-loop clients.
//!
//! An in-process [`Server`] with two workers and a persistent store
//! answers two clients that each wait for a reply before sending their
//! next request: one opens an HTTP connection per request, the other
//! keeps one binary [`wire::Client`] connection. Each client draws a
//! seeded sequence: about 80% repeats from a hot set of bounds,
//! schedule, generate and small-solve bodies (cache hits after the
//! warm-up), about 20% fresh instances sent inline as `dag_text` (cache
//! misses: executed, cached, appended to the store).
//!
//! The timed phase runs in segments of [`SEGMENT`]. At the end of each,
//! both clients finish their request in flight and wait while the
//! calibration kernel runs on the idle host; each request's time is
//! scaled by the kernel runs around its segment.
//!
//! Answers are checked twice. During the timed phase every reply must be
//! `200` with a well-formed result; after it, the hot bodies and the
//! first [`VERIFY_FRESH`] fresh bodies of each client are re-derived by
//! calling `Work::parse` + `Work::execute` directly, and every served
//! answer for those bodies must match.
//!
//! The traced run replays a sample of the same bodies through the
//! server's layers one call at a time (JSON parse, request parse, cache
//! key, cache probe, execution, store append, render) and attributes
//! the clients' wall time to layers; what the replay does not explain is
//! reported per transport as the transport and queueing residual.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rbp_dag::{generators, io, Dag};
use rbp_serve::{http, wire, ResultCache, ResultStore, ServeConfig, Server, Work};
use rbp_util::json::Json;
use rbp_util::Rng;

use crate::spans::Tracer;
use crate::{mix, Calibration, Metrics, Phase};

/// Share of requests that are fresh instances.
pub const FRESH_SHARE: f64 = 0.2;
/// Fresh requests per client re-derived after the timed phase and
/// summed into `cost_total`; a client keeps sending past the timed phase
/// until it has sent this many.
pub const VERIFY_FRESH: u64 = 200;
/// Fresh bodies per client replayed layer by layer in the traced run
/// (one streaming-tier body each).
const REPLAY_FRESH: u64 = STREAM_EVERY;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Result-cache capacity: far above the hot set, low enough that the
/// fresh entries' churn caps the cache's memory early in a run, so peak
/// memory does not grow with throughput.
const CACHE_CAP: usize = 4096;
/// Length of one segment of the timed phase. Between segments both
/// clients pause and the calibration kernel runs on the idle host.
const SEGMENT: Duration = Duration::from_secs(2);
/// Calibration kernel runs at each segment boundary; their median is
/// the boundary's host speed.
const BOUNDARY_PROBES: usize = 3;

/// One request: endpoint and JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Endpoint name (`solve`, `schedule`, `bounds`, `generate`).
    pub endpoint: &'static str,
    /// Rendered JSON body.
    pub body: String,
}

/// Fresh-instance classes, cycled in [`FRESH_CYCLE`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/bounds` on a layered DAG.
    Bounds,
    /// In-memory `/v1/schedule`.
    Schedule,
    /// Three-level `/v1/schedule` (`levels: 3`).
    ScheduleHier,
    /// `/v1/solve` of a six-node DAG (a few ms).
    Solve,
    /// `/v1/schedule` just above `MAX_NODES`: the streaming tier.
    ScheduleStream,
}

impl Kind {
    /// The layer a fresh request of this kind spends its execution in.
    #[must_use]
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Bounds => "bounds",
            Kind::Schedule | Kind::ScheduleHier => "schedulers",
            Kind::Solve => "core.search",
            Kind::ScheduleStream => "stream",
        }
    }
}

/// The order fresh requests take per client; every
/// [`STREAM_EVERY`]th fresh request is a streaming-tier schedule instead.
pub const FRESH_CYCLE: [Kind; 8] = [
    Kind::Bounds,
    Kind::Schedule,
    Kind::Solve,
    Kind::ScheduleHier,
    Kind::Bounds,
    Kind::Schedule,
    Kind::Solve,
    Kind::Schedule,
];

/// One fresh request in this many (about 0.3% of requests) is a
/// streaming-tier schedule.
pub const STREAM_EVERY: u64 = 64;

fn gen_body(
    family: &str,
    params: &[usize],
    k: u64,
    r: u64,
    g: u64,
    extra: &[(&str, u64)],
) -> String {
    let mut pairs = vec![
        (
            "generator",
            Json::obj([
                ("family", Json::from(family)),
                ("params", Json::arr(params.iter().map(|&p| Json::from(p)))),
            ]),
        ),
        ("k", Json::from(k)),
        ("r", Json::from(r)),
        ("g", Json::from(g)),
    ];
    pairs.extend(extra.iter().map(|&(key, v)| (key, Json::from(v))));
    Json::obj(pairs).render()
}

fn inline_body(dag: &Dag, k: u64, r: u64, g: u64, extra: &[(&str, u64)]) -> String {
    let mut pairs = vec![
        ("dag_text", Json::from(io::to_text(dag))),
        ("k", Json::from(k)),
        ("r", Json::from(r)),
        ("g", Json::from(g)),
    ];
    pairs.extend(extra.iter().map(|&(key, v)| (key, Json::from(v))));
    Json::obj(pairs).render()
}

/// The hot set: eighteen fixed bodies over every cacheable endpoint.
#[must_use]
pub fn hot_set() -> Vec<Req> {
    let mut out = Vec::new();
    let mut push = |endpoint, body| out.push(Req { endpoint, body });
    for (rows, k) in [(4, 2), (6, 4), (8, 2), (10, 4)] {
        push("bounds", gen_body("grid", &[rows, rows], k, 3, 2, &[]));
    }
    push("schedule", gen_body("grid", &[4, 4], 2, 3, 2, &[]));
    push("schedule", gen_body("grid", &[6, 6], 4, 4, 2, &[]));
    push("schedule", gen_body("fft", &[3], 2, 3, 2, &[]));
    push("schedule", gen_body("layered", &[6, 6, 2, 3], 2, 3, 2, &[]));
    push(
        "schedule",
        gen_body(
            "grid",
            &[4, 4],
            2,
            4,
            2,
            &[("levels", 3), ("green_cap", 2), ("green_cost", 1)],
        ),
    );
    for (family, params) in [
        ("grid", &[8usize, 8][..]),
        ("fft", &[4][..]),
        ("pyramid", &[6][..]),
        ("layered", &[5, 5, 2, 9][..]),
        ("hier_skip", &[4][..]),
    ] {
        push(
            "generate",
            Json::obj([(
                "generator",
                Json::obj([
                    ("family", Json::from(family)),
                    ("params", Json::arr(params.iter().map(|&p| Json::from(p)))),
                ]),
            )])
            .render(),
        );
    }
    push("solve", gen_body("grid", &[2, 3], 2, 3, 2, &[]));
    push("solve", gen_body("chain", &[4], 1, 2, 1, &[]));
    push("solve", gen_body("grid", &[2, 4], 2, 3, 2, &[]));
    push(
        "solve",
        gen_body(
            "hier_skip",
            &[1],
            1,
            3,
            3,
            &[("levels", 3), ("green_cap", 1), ("green_cost", 1)],
        ),
    );
    out
}

/// Fresh request `j` of `client`: a layered DAG sent inline, except the
/// streaming-tier size, sent as a seeded `layered` generator spec (see
/// `README.md`). Each kind has a fixed shape and machine; the seed draws
/// only the edges, so seeds differ in content but not in size.
#[must_use]
pub fn fresh(seed: u64, client: usize, j: u64) -> (Kind, Req) {
    let kind = if j % STREAM_EVERY == STREAM_EVERY - 1 {
        Kind::ScheduleStream
    } else {
        FRESH_CYCLE[(j % FRESH_CYCLE.len() as u64) as usize]
    };
    let s = mix(seed ^ mix(((client as u64) << 40) ^ j));
    let layered = |levels, width| generators::layered_random(levels, width, 2, s);
    let (endpoint, body) = match kind {
        Kind::Bounds => ("bounds", inline_body(&layered(6, 6), 3, 3, 2, &[])),
        Kind::Schedule => ("schedule", inline_body(&layered(5, 6), 3, 3, 2, &[])),
        Kind::ScheduleHier => {
            let extra = [("levels", 3), ("green_cap", 2), ("green_cost", 1)];
            ("schedule", inline_body(&layered(4, 4), 2, 3, 2, &extra))
        }
        Kind::Solve => ("solve", inline_body(&layered(3, 2), 2, 3, 2, &[])),
        Kind::ScheduleStream => {
            // The generator caps its parameters at 2^20.
            let edges = (s % (1 << 20)) as usize;
            (
                "schedule",
                gen_body("layered", &[4, 1060, 2, edges], 4, 3, 2, &[]),
            )
        }
    };
    (kind, Req { endpoint, body })
}

/// Which request a client sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Hot-set body at this index.
    Hot(usize),
    /// The client's fresh request with this index.
    Fresh(u64),
}

/// A client's seeded request sequence.
#[derive(Debug)]
pub struct Sequence {
    rng: Rng,
    fresh: u64,
    hot: usize,
}

impl Sequence {
    /// The sequence of `client` under workload `seed` over a hot set of
    /// `hot` bodies.
    #[must_use]
    pub fn new(seed: u64, client: usize, hot: usize) -> Sequence {
        Sequence {
            rng: Rng::new(mix(seed ^ 0x5e7e ^ ((client as u64 + 1) << 48))),
            fresh: 0,
            hot,
        }
    }

    /// The next pick.
    pub fn next_pick(&mut self) -> Pick {
        if self.rng.bool(FRESH_SHARE) {
            self.fresh += 1;
            Pick::Fresh(self.fresh - 1)
        } else {
            Pick::Hot(self.rng.index(self.hot))
        }
    }

    /// Fresh requests picked so far.
    #[must_use]
    pub fn fresh_issued(&self) -> u64 {
        self.fresh
    }
}

/// The first `n` requests of every client, rendered — the byte-level
/// operation sequence the seed fixes.
#[must_use]
pub fn plan_bytes(seed: u64, n: usize) -> String {
    let hot = hot_set();
    let mut out = String::new();
    for c in 0..2 {
        let mut seq = Sequence::new(seed, c, hot.len());
        for _ in 0..n {
            let req = match seq.next_pick() {
                Pick::Hot(h) => hot[h].clone(),
                Pick::Fresh(j) => fresh(seed, c, j).1,
            };
            out.push_str(req.endpoint);
            out.push(' ');
            out.push_str(&req.body);
            out.push('\n');
        }
    }
    out
}

/// The checkable part of a result core: a digest string and the
/// pebbling total it reports (solve total, schedule best total).
///
/// # Errors
/// A core missing the fields its endpoint must carry.
pub fn digest(core: &Json) -> Result<(String, Option<u64>), String> {
    let u = |j: Option<&Json>, what: &str| {
        j.and_then(Json::as_u64)
            .ok_or_else(|| format!("result lacks {what}"))
    };
    let endpoint = core
        .get("endpoint")
        .and_then(Json::as_str)
        .ok_or("result lacks endpoint")?;
    match endpoint {
        "solve" => {
            let t = u(core.get("total"), "total")?;
            Ok((format!("solve total={t}"), Some(t)))
        }
        "schedule" => {
            let t = u(core.get("best").and_then(|b| b.get("total")), "best.total")?;
            let tier = core.get("tier").and_then(Json::as_str).unwrap_or("");
            let rows = core
                .get("schedulers")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            Ok((
                format!("schedule tier={tier} rows={rows} best={t}"),
                Some(t),
            ))
        }
        "bounds" => Ok((
            format!(
                "bounds lower={} upper={} feasible={:?}",
                u(core.get("lower"), "lower")?,
                u(core.get("upper"), "upper")?,
                core.get("feasible")
            ),
            None,
        )),
        "generate" => {
            let text = core
                .get("dag_text")
                .and_then(Json::as_str)
                .ok_or("result lacks dag_text")?;
            Ok((
                format!(
                    "generate n={} text={}",
                    u(core.get("n"), "n")?,
                    rbp_trace::hash_hex(text.as_bytes())
                ),
                None,
            ))
        }
        other => Err(format!("unexpected endpoint '{other}' in result")),
    }
}

/// Re-derives `req`'s answer by calling the API layer directly.
///
/// # Errors
/// The API error, or a malformed result.
pub fn derive(req: &Req) -> Result<(String, Option<u64>), String> {
    let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
    let work = Work::parse(req.endpoint, &body).map_err(|e| format!("{} {}", e.status, e.msg))?;
    let core = work
        .execute()
        .map_err(|e| format!("{} {}", e.status, e.msg))?;
    digest(&core)
}

/// A transport a client speaks.
enum Transport {
    Http(SocketAddr),
    Wire(wire::Client),
}

impl Transport {
    /// Sends `req`; returns the result core and the cache tag.
    fn call(&mut self, req: &Req) -> Result<(Json, &'static str), String> {
        match self {
            Transport::Http(addr) => {
                let path = format!("/v1/{}", req.endpoint);
                let resp = http::request(*addr, "POST", &path, Some(&req.body), TIMEOUT)
                    .map_err(|e| format!("http: {e}"))?;
                if resp.status != 200 {
                    return Err(format!("http {}: {}", resp.status, resp.body));
                }
                let env = Json::parse(&resp.body).map_err(|e| format!("http body: {e}"))?;
                let tag = match env.get("cache").and_then(Json::as_str) {
                    Some("hit") => "hit",
                    Some("store") => "store",
                    _ => "miss",
                };
                let core = env
                    .get("result")
                    .cloned()
                    .ok_or("http envelope lacks result")?;
                Ok((core, tag))
            }
            Transport::Wire(client) => {
                let resp = client
                    .call(req.endpoint, &req.body)
                    .map_err(|e| format!("wire: {e}"))?;
                if !resp.is_ok() {
                    return Err(format!("wire {}: {}", resp.status, resp.payload));
                }
                let core = Json::parse(&resp.payload).map_err(|e| format!("wire payload: {e}"))?;
                Ok((core, wire::tag_name(resp.tag)))
            }
        }
    }
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    hot_seen: Vec<BTreeMap<String, u64>>,
    fresh_seen: Vec<(u64, String)>,
    hot_counts: Vec<u64>,
    fresh_counts: [u64; 5],
    hit_ms: Vec<f64>,
    hot_totals: Vec<Option<u64>>,
    fresh_total: u64,
    spans: Option<Tracer>,
    /// The segment each timed request (`lat_ms` entry) ran in.
    segment: Vec<usize>,
}

/// Every kind, in declaration order (`kind as usize` indexes it).
const KINDS: [Kind; 5] = [
    Kind::Bounds,
    Kind::Schedule,
    Kind::ScheduleHier,
    Kind::Solve,
    Kind::ScheduleStream,
];

/// How the main thread paces the clients: at the end of each segment it
/// raises `pause`, both clients finish the request in flight and meet it
/// at `meet`, it times the calibration kernel on the idle host, and a
/// second `meet` lets the clients go on — or, with `stop` set, ends the
/// timed phase. The flags are stored with `Release` and loaded with
/// `Acquire`; `stop` and the cleared `pause` are stored before the second
/// `meet`, so a client past it sees both.
struct Gate {
    pause: AtomicBool,
    stop: AtomicBool,
    meet: Barrier,
}

/// One client: its transport, its seeded sequence and what it observed.
struct Client<'a> {
    c: usize,
    transport: Transport,
    seed: u64,
    hot: &'a [Req],
    seq: Sequence,
    tr: Tracer,
    log: ClientLog,
    i: u64,
}

impl Client<'_> {
    /// Sends the next request of the sequence and checks the answer;
    /// returns its wall time in ms.
    fn send(&mut self) -> f64 {
        let (c, i, log) = (self.c, self.i, &mut self.log);
        self.i += 1;
        let pick = self.seq.next_pick();
        let (req, kind) = match pick {
            Pick::Hot(h) => (self.hot[h].clone(), None),
            Pick::Fresh(j) => {
                let (kind, req) = fresh(self.seed, c, j);
                (req, Some(kind))
            }
        };
        let span_name = if c == 0 { "serve.http" } else { "serve.wire" };
        let transport = &mut self.transport;
        let t = Instant::now();
        let answer = self.tr.span(span_name, i, |_| transport.call(&req));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        let checked = answer.and_then(|(core, tag)| digest(&core).map(|d| (d, tag)));
        match checked {
            Ok(((dig, total), tag)) => match pick {
                Pick::Hot(h) => {
                    log.hot_counts[h] += 1;
                    log.hot_totals[h] = total;
                    *log.hot_seen[h].entry(dig).or_insert(0) += 1;
                    if tag == "hit" {
                        log.hit_ms.push(ms);
                    }
                }
                Pick::Fresh(j) => {
                    log.fresh_counts[kind.expect("fresh kind") as usize] += 1;
                    if j < VERIFY_FRESH {
                        log.fresh_total += total.unwrap_or(0);
                        log.fresh_seen.push((j, dig));
                    }
                }
            },
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 5 {
                    log.errors.push(format!("client {c} op {i}: {e}"));
                }
            }
        }
        ms
    }
}

fn client_loop(
    c: usize,
    transport: Transport,
    seed: u64,
    hot: &[Req],
    gate: &Gate,
    traced: bool,
) -> ClientLog {
    let mut client = Client {
        c,
        transport,
        seed,
        hot,
        seq: Sequence::new(seed, c, hot.len()),
        tr: Tracer::new(traced),
        log: ClientLog {
            hot_seen: vec![BTreeMap::new(); hot.len()],
            hot_counts: vec![0; hot.len()],
            hot_totals: vec![None; hot.len()],
            ..ClientLog::default()
        },
        i: 0,
    };
    let mut segment = 0;
    gate.meet.wait();
    loop {
        if gate.pause.load(Ordering::Acquire) {
            gate.meet.wait();
            gate.meet.wait();
            if gate.stop.load(Ordering::Acquire) {
                break;
            }
            segment += 1;
        }
        let ms = client.send();
        client.log.lat_ms.push(ms);
        client.log.segment.push(segment);
    }
    // Past the timed phase, untimed: the rest of the fresh requests the
    // checks re-derive.
    while client.seq.fresh_issued() < VERIFY_FRESH {
        client.send();
    }
    let mut log = client.log;
    log.spans = traced.then_some(client.tr);
    log
}

/// Cache misses sent before the hot set while a server warms up. Every
/// miss registers a job, and the server keeps its last 4,096 finished
/// jobs: past that, each new job also prunes the registry. The warm-up
/// passes that point, and fills the result cache to its capacity, so the
/// timed phase starts in the state a long-running server is in rather
/// than spending its first seconds in a faster transient.
pub const WARM_MISSES: u64 = 4_352;

/// The warm-up misses: bounds of a three-node chain, each at its own
/// I/O cost `g`, so every one is a distinct instance.
fn warm_misses() -> impl Iterator<Item = Req> {
    (0..WARM_MISSES).map(|i| Req {
        endpoint: "bounds",
        body: gen_body("chain", &[3], 1, 2, 1_000 + i, &[]),
    })
}

/// A running server with its store directory and warm hot set.
pub struct Rig {
    server: Option<Server>,
    dir: PathBuf,
    wire: Option<wire::Client>,
}

impl Rig {
    /// Starts a two-worker server over a fresh store directory under
    /// `work_dir`, connects the binary client, brings the server to its
    /// steady state with [`WARM_MISSES`] cheap cache misses, and sends
    /// every hot body once over each transport so the timed phase sees
    /// them cached.
    ///
    /// # Errors
    /// Bind, store, connect, or warm-up failures.
    pub fn start(work_dir: &std::path::Path, rep: usize, hot: &[Req]) -> Result<Rig, String> {
        let dir = work_dir.join(format!("serve-store-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            cache_cap: CACHE_CAP,
            store_dir: Some(dir.display().to_string()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut rig = Rig {
            server: Some(server),
            dir,
            wire: None,
        };
        let addr = rig.addr();
        let client =
            wire::Client::connect(addr, TIMEOUT).map_err(|e| format!("wire connect: {e}"))?;
        let mut transports = [Transport::Http(addr), Transport::Wire(client)];
        for req in warm_misses() {
            transports[1]
                .call(&req)
                .map_err(|e| format!("warm-up {}: {e}", req.endpoint))?;
        }
        for t in &mut transports {
            for req in hot {
                t.call(req)
                    .map_err(|e| format!("warm-up {}: {e}", req.endpoint))?;
            }
        }
        let [_, Transport::Wire(client)] = transports else {
            unreachable!("the second transport is the wire client")
        };
        rig.wire = Some(client);
        Ok(rig)
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running server").addr()
    }

    /// Fetches `/v1/stats`.
    fn stats(&self) -> Result<Json, String> {
        let resp = http::request(self.addr(), "GET", "/v1/stats", None, TIMEOUT)
            .map_err(|e| e.to_string())?;
        Json::parse(&resp.body).map_err(|e| e.to_string())
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        drop(self.wire.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything the serve run produced.
pub struct Outcome {
    /// Timed-phase latencies and counts (both clients).
    pub phase: Phase,
    /// Sum of the reported totals of the hot bodies and of each client's
    /// first [`VERIFY_FRESH`] fresh requests.
    pub cost_total: u64,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Spans of the traced run.
    pub spans: Tracer,
}

fn stat(j: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(j);
    for p in path {
        cur = cur.and_then(|c| c.get(p));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs the timed phase against `rig` in segments of [`SEGMENT`],
/// timing `cal`'s kernel on the idle host between segments, verifies
/// every answer, and (when `traced`) replays the layers.
pub fn run(
    mut rig: Rig,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &std::path::Path,
    cal: &mut Calibration,
) -> Outcome {
    let hot = hot_set();
    let before = rig.stats().unwrap_or(Json::Null);
    let wire_client = rig.wire.take().expect("connected wire client");
    let addr = rig.addr();
    let budget = Duration::from_secs_f64(seconds);
    let gate = Gate {
        pause: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        meet: Barrier::new(3),
    };
    // Kernel times at each segment boundary, and each segment's length.
    let mut boundaries: Vec<Vec<f64>> = Vec::new();
    let mut segment_s: Vec<f64> = Vec::new();
    let logs = std::thread::scope(|s| {
        let h0 = s.spawn(|| client_loop(0, Transport::Http(addr), seed, &hot, &gate, traced));
        let h1 =
            s.spawn(|| client_loop(1, Transport::Wire(wire_client), seed, &hot, &gate, traced));
        let mut probe = |cal: &mut Calibration| {
            boundaries.push((0..BOUNDARY_PROBES).map(|_| cal.probe()).collect());
        };
        probe(cal);
        gate.meet.wait();
        let t0 = Instant::now();
        loop {
            let t = Instant::now();
            std::thread::sleep(SEGMENT.min(budget.saturating_sub(t0.elapsed())));
            gate.pause.store(true, Ordering::Release);
            gate.meet.wait();
            segment_s.push(t.elapsed().as_secs_f64());
            probe(cal);
            let done = t0.elapsed() >= budget;
            gate.stop.store(done, Ordering::Release);
            gate.pause.store(false, Ordering::Release);
            gate.meet.wait();
            if done {
                break;
            }
        }
        let a = h0.join().expect("http client thread");
        let b = h1.join().expect("wire client thread");
        [a, b]
    });
    let after = rig.stats().unwrap_or(Json::Null);
    drop(rig);

    // Segment `k` runs between boundaries `k` and `k + 1`: its factor to
    // the reference speed is nominal over the median of their kernel runs.
    let nominal = cal.kernel().nominal_ms();
    let seg_scale: Vec<f64> = (0..segment_s.len())
        .map(|k| {
            let around: Vec<f64> = boundaries[k..=k + 1].concat();
            nominal / crate::stats::median(&around).unwrap_or(nominal)
        })
        .collect();
    let mut phase = Phase {
        elapsed_s: segment_s.iter().sum(),
        ..Phase::default()
    };
    for log in &logs {
        phase.latencies_ms.extend(&log.lat_ms);
        phase
            .scales
            .extend(log.segment.iter().map(|&k| seg_scale[k]));
        phase.attempted += log.attempted;
        phase.failed += log.failed;
        phase.errors.extend(log.errors.iter().cloned());
    }

    // Re-derive the answers by direct library calls.
    for (h, req) in hot.iter().enumerate() {
        let seen: Vec<(&String, u64)> = logs
            .iter()
            .flat_map(|l| l.hot_seen[h].iter().map(|(d, n)| (d, *n)))
            .collect();
        if seen.is_empty() {
            continue;
        }
        let expected = derive(req).map(|d| d.0);
        for (dig, n) in seen {
            if expected.as_ref() != Ok(dig) {
                phase.failed += n;
                phase.errors.push(format!(
                    "hot body {h}: served {dig}, direct call gives {expected:?}"
                ));
            }
        }
    }
    for (c, log) in logs.iter().enumerate() {
        for (j, dig) in &log.fresh_seen {
            let expected = derive(&fresh(seed, c, *j).1).map(|d| d.0);
            if expected.as_ref() != Ok(dig) {
                phase.failed += 1;
                phase.errors.push(format!(
                    "client {c} fresh {j}: served {dig}, direct call gives {expected:?}"
                ));
            }
        }
    }
    // Every hot body once, plus each client's verified fresh requests:
    // the same bodies whatever the run's length, and for every seed the
    // same number of fresh requests of each kind.
    let hot_total: u64 = (0..hot.len())
        .filter_map(|h| logs.iter().find_map(|l| l.hot_totals[h]))
        .sum();
    let cost_total = hot_total + logs.iter().map(|l| l.fresh_total).sum::<u64>();

    let mut layers = Metrics::default();
    let mut spans = Tracer::new(traced);
    if traced {
        let [a, b] = logs;
        layers = replay(seed, &hot, &[&a, &b], &before, &after, work_dir, &mut spans);
        for log in [a, b] {
            if let Some(t) = log.spans {
                spans.absorb(t);
            }
        }
    }
    Outcome {
        phase,
        cost_total,
        layers,
        spans,
    }
}

/// Layer costs of one request, microseconds.
#[derive(Debug, Default, Clone)]
struct Cost {
    json_parse: f64,
    api_parse: f64,
    dag_parse: f64,
    cache_key: f64,
    to_text: f64,
    cache_get: f64,
    render: f64,
    execute: f64,
    store_append: f64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays one request through the server's layers, one call each.
fn replay_one(
    req: &Req,
    exec_layer: &'static str,
    cache: &ResultCache,
    store: &ResultStore,
    tr: &mut Tracer,
    op: u64,
) -> Result<Cost, String> {
    let mut c = Cost::default();
    tr.span("op", op, |tr| {
        let t = Instant::now();
        let body = tr
            .span("util.json", op, |_| Json::parse(&req.body))
            .map_err(|e| e.to_string())?;
        c.json_parse = us(t);
        let t = Instant::now();
        let work = tr
            .span("serve.api", op, |_| Work::parse(req.endpoint, &body))
            .map_err(|e| e.msg)?;
        c.api_parse = us(t);
        if let Some(Json::Str(text)) = body.get("dag_text") {
            let t = Instant::now();
            let dag = tr
                .span("dag", op, |_| io::parse(text))
                .map_err(|e| e.to_string())?;
            c.dag_parse = us(t);
            let t = Instant::now();
            std::hint::black_box(tr.span("dag", op, |_| io::to_text(&dag)));
            c.to_text = us(t);
        }
        let t = Instant::now();
        let key = tr.span("serve.api", op, |_| work.cache_key());
        c.cache_key = us(t);
        let t = Instant::now();
        let hit = tr.span("serve.cache", op, |_| cache.get(&key));
        c.cache_get = us(t);
        let t = Instant::now();
        let core = tr
            .span(exec_layer, op, |_| work.execute())
            .map_err(|e| e.msg)?;
        c.execute = us(t);
        let t = Instant::now();
        let rendered = tr.span("util.json", op, |_| core.render());
        c.render = us(t);
        let t = Instant::now();
        tr.span("serve.store", op, |_| store.append(&key, &rendered));
        c.store_append = us(t);
        if hit.is_none() {
            cache.insert(&key, rendered);
        }
        Ok(c)
    })
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = xs.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// The traced run's layer replay and wall-time attribution.
fn replay(
    seed: u64,
    hot: &[Req],
    logs: &[&ClientLog; 2],
    before: &Json,
    after: &Json,
    work_dir: &std::path::Path,
    tr: &mut Tracer,
) -> Metrics {
    let mut m = Metrics::default();
    let dir = work_dir.join(format!("serve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match ResultStore::open(&dir, 0) {
        Ok(s) => s,
        Err(e) => {
            println!("warning: replay store: {e}");
            return m;
        }
    };
    let cache = ResultCache::new(1 << 12);
    let mut op = 0u64;
    let mut replay = |req: &Req, layer: &'static str, tr: &mut Tracer| {
        op += 1;
        replay_one(req, layer, &cache, &store, tr, op).ok()
    };
    // Hot bodies twice: the first pass fills the replay cache so the
    // second measures the hit path.
    let hot_layer = |req: &Req| match req.endpoint {
        "solve" => "core.search",
        "schedule" => "schedulers",
        "bounds" => "bounds",
        _ => "dag",
    };
    for req in hot {
        let _ = replay(req, hot_layer(req), &mut Tracer::new(false));
    }
    let hot_costs: Vec<Cost> = hot
        .iter()
        .map(|req| replay(req, hot_layer(req), tr).unwrap_or_default())
        .collect();
    let mut fresh_costs: Vec<Vec<Cost>> = vec![Vec::new(); KINDS.len()];
    for c in 0..2 {
        for j in 0..REPLAY_FRESH {
            let (kind, req) = fresh(seed, c, j);
            if let Some(cost) = replay(&req, kind.layer(), tr) {
                fresh_costs[kind as usize].push(cost);
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Per-request layer costs, averaged over the replayed sample.
    let all: Vec<&Cost> = hot_costs
        .iter()
        .chain(fresh_costs.iter().flatten())
        .collect();
    let fresh_all: Vec<&Cost> = fresh_costs.iter().flatten().collect();
    m.set(
        "util.json.parse_us",
        mean(all.iter().map(|c| c.json_parse)),
        "us",
    );
    m.set(
        "util.json.render_us",
        mean(all.iter().map(|c| c.render)),
        "us",
    );
    m.set(
        "serve.api.parse_us",
        mean(all.iter().map(|c| c.api_parse)),
        "us",
    );
    m.set(
        "serve.api.cache_key_us",
        mean(all.iter().map(|c| c.cache_key)),
        "us",
    );
    m.set(
        "serve.cache.get_us",
        mean(hot_costs.iter().map(|c| c.cache_get)),
        "us",
    );
    m.set(
        "serve.store.append_us",
        mean(fresh_all.iter().map(|c| c.store_append)),
        "us",
    );
    m.set(
        "dag.parse_ms",
        mean(fresh_all.iter().map(|c| c.dag_parse)) / 1e3,
        "ms",
    );
    m.set(
        "dag.to_text_ms",
        mean(fresh_all.iter().map(|c| c.to_text)) / 1e3,
        "ms",
    );
    for ep in crate::layers::ENDPOINTS {
        let exec: Vec<f64> = hot
            .iter()
            .zip(&hot_costs)
            .filter(|(r, _)| r.endpoint == *ep)
            .map(|(_, c)| c.execute)
            .chain(
                KINDS
                    .iter()
                    .zip(&fresh_costs)
                    .filter(|(k, _)| endpoint_of(**k) == *ep)
                    .flat_map(|(_, cs)| cs.iter().map(|c| c.execute)),
            )
            .collect();
        m.set(
            format!("serve.api.execute_ms.{ep}"),
            mean(exec.into_iter()) / 1e3,
            "ms",
        );
    }
    m.set(
        "bounds.ms",
        mean(fresh_costs[Kind::Bounds as usize].iter().map(|c| c.execute)) / 1e3,
        "ms",
    );

    // Counters from the server itself, timed phase only.
    let diff = |path: &[&str]| stat(after, path) - stat(before, path);
    let (hits, misses) = (diff(&["cache", "hits"]), diff(&["cache", "misses"]));
    m.set(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.set("serve.store.appends", diff(&["store", "appends"]), "count");
    m.set("serve.store.bytes", stat(after, &["store", "bytes"]), "B");
    m.set("serve.jobs.rejected", diff(&["rejected"]), "count");
    let rtt = |log: &ClientLog| {
        let mut v = log.hit_ms.clone();
        v.sort_by(f64::total_cmp);
        crate::stats::percentile(&v, 50.0).unwrap_or(0.0)
    };
    m.set("serve.http.rtt_ms", rtt(logs[0]), "ms");
    m.set("serve.wire.rtt_ms", rtt(logs[1]), "ms");

    // Attribute client wall time: replayed per-request layer costs times
    // the number of such requests sent; the rest is transport/queueing.
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |c: &Cost, n: f64, exec_layer: &'static str, hit: bool| {
        let mut put = |k: &'static str, v: f64| *by_layer.entry(k).or_insert(0.0) += v * n / 1e3;
        put("util.json", c.json_parse + c.render);
        put(
            "serve.api",
            (c.api_parse - c.dag_parse).max(0.0) + (c.cache_key - c.to_text).max(0.0),
        );
        put("dag", c.dag_parse + c.to_text);
        put("serve.cache", c.cache_get);
        if !hit {
            put(exec_layer, c.execute);
            put("serve.store", c.store_append);
        }
    };
    let mut wall_ms = [0.0f64; 2];
    for (t, log) in logs.iter().enumerate() {
        wall_ms[t] = log.lat_ms.iter().sum();
        for (h, c) in hot_costs.iter().enumerate() {
            add(c, log.hot_counts[h] as f64, "", true);
        }
        for (k, kind) in KINDS.iter().enumerate() {
            let cs = &fresh_costs[k];
            let n = log.fresh_counts[k] as f64;
            if cs.is_empty() || n == 0.0 {
                continue;
            }
            let avg = Cost {
                json_parse: mean(cs.iter().map(|c| c.json_parse)),
                api_parse: mean(cs.iter().map(|c| c.api_parse)),
                dag_parse: mean(cs.iter().map(|c| c.dag_parse)),
                cache_key: mean(cs.iter().map(|c| c.cache_key)),
                to_text: mean(cs.iter().map(|c| c.to_text)),
                cache_get: mean(cs.iter().map(|c| c.cache_get)),
                render: mean(cs.iter().map(|c| c.render)),
                execute: mean(cs.iter().map(|c| c.execute)),
                store_append: mean(cs.iter().map(|c| c.store_append)),
            };
            add(&avg, n, kind.layer(), false);
        }
    }
    let explained: f64 = by_layer.values().sum();
    let wall: f64 = wall_ms.iter().sum::<f64>().max(1e-9);
    let requests = logs.iter().map(|l| l.lat_ms.len()).sum::<usize>().max(1) as f64;
    let residual = (wall - explained).max(0.0);
    m.set("serve.residual_ms", residual / requests, "ms");
    println!(
        "serve wall time attribution over {requests} requests ({wall:.1} ms of client wall time):"
    );
    for (layer, ms) in &by_layer {
        println!("  {layer:<16} {ms:>12.3} ms {:>7.2}%", ms / wall * 100.0);
        m.set(format!("layer.{layer}.self_pct"), ms / wall * 100.0, "%");
    }
    // The residual splits by transport in proportion to each client's
    // unexplained share of its own wall time.
    let share = |t: usize| wall_ms[t] / wall;
    for (t, name) in ["serve.http", "serve.wire"].iter().enumerate() {
        let ms = residual * share(t);
        println!(
            "  {name:<16} {ms:>12.3} ms {:>7.2}%  (transport and queueing residual)",
            ms / wall * 100.0
        );
        m.set(format!("layer.{name}.self_pct"), ms / wall * 100.0, "%");
    }
    m.set("trace.coverage_pct", explained / wall * 100.0, "%");
    m
}

fn endpoint_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Bounds => "bounds",
        Kind::Solve => "solve",
        _ => "schedule",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_sequence_is_byte_identical_per_seed() {
        assert_eq!(plan_bytes(3, 40), plan_bytes(3, 40));
        assert_ne!(plan_bytes(3, 40), plan_bytes(4, 40));
    }

    #[test]
    fn fresh_share_is_about_a_fifth() {
        let mut seq = Sequence::new(1, 0, 18);
        let fresh = (0..10_000)
            .filter(|_| matches!(seq.next_pick(), Pick::Fresh(_)))
            .count();
        assert!((1_700..2_300).contains(&fresh), "{fresh}");
    }

    #[test]
    fn streaming_fresh_bodies_cross_the_in_memory_cap() {
        let (kind, req) = fresh(1, 0, STREAM_EVERY - 1);
        assert_eq!(kind, Kind::ScheduleStream);
        let body = Json::parse(&req.body).unwrap();
        let Work::Schedule { dag, .. } = Work::parse("schedule", &body).unwrap() else {
            panic!("a schedule request")
        };
        assert!(dag.n() > rbp_serve::api::MAX_NODES);
        assert_ne!(req, fresh(1, 0, 2 * STREAM_EVERY - 1).1);
    }

    /// Each warm-up body is its own instance, so each is a cache miss
    /// that registers a job.
    #[test]
    fn warm_up_misses_are_distinct_instances() {
        let keys: std::collections::BTreeSet<String> = warm_misses()
            .map(|req| {
                let body = Json::parse(&req.body).unwrap();
                Work::parse(req.endpoint, &body).unwrap().cache_key()
            })
            .collect();
        assert_eq!(keys.len() as u64, WARM_MISSES);
    }

    /// A corrupted served answer (a wrong total) no longer matches the
    /// direct re-derivation, so the run counts it as failed.
    #[test]
    fn corrupted_answers_do_not_match_the_rederivation() {
        let req = fresh(2, 1, 2).1;
        assert_eq!(req.endpoint, "solve");
        let body = Json::parse(&req.body).unwrap();
        let mut core = Work::parse("solve", &body).unwrap().execute().unwrap();
        let good = digest(&core).unwrap();
        assert_eq!(derive(&req).unwrap(), good);
        if let Json::Obj(pairs) = &mut core {
            for (k, v) in pairs.iter_mut() {
                if k == "total" {
                    *v = Json::from(v.as_u64().unwrap() + 1);
                }
            }
        }
        assert_ne!(digest(&core).unwrap(), good);
        assert!(digest(&Json::obj([("endpoint", Json::from("solve"))])).is_err());
    }

    #[test]
    fn every_hot_body_parses() {
        for req in hot_set() {
            let body = Json::parse(&req.body).unwrap();
            Work::parse(req.endpoint, &body).unwrap_or_else(|e| panic!("{}: {}", req.body, e.msg));
        }
    }
}
