//! Request parsing, work execution, and response envelopes — schema v1.
//!
//! A POST body describes a problem instance (an inline DAG in the
//! `rbp_dag::io` text format, or a generator spec) plus machine
//! parameters `(k, r, g)` and endpoint-specific knobs. [`Work::parse`]
//! validates everything up front so malformed requests fail with `400`
//! before touching the queue; [`Work::execute`] runs on a worker thread
//! and produces the JSON *result core* that is cached and wrapped into
//! the response envelope. `docs/SCHEMAS.md` documents every body shape.

use rbp_core::rbp_dag::{generators, io, Dag};
use rbp_core::{
    CostModel, GameMode, MppInstance, MppRunStats, SearchConfig, SolveLimits, StopReason,
};
use rbp_hier::{all_hier_schedulers, HierInstance};
use rbp_refine::{race, PortfolioConfig};
use rbp_schedulers::all_schedulers;
use rbp_stream::{all_stream_schedulers, NullSink};
use rbp_util::json::Json;

/// Largest DAG accepted by the scheduling/bounds endpoints — and the
/// threshold above which `/v1/schedule` switches to the streaming tier.
pub const MAX_NODES: usize = 4096;
/// Largest DAG accepted by the `/v1/schedule` streaming tier. Beyond
/// this the request is rejected with `413` before anything is built.
pub const STREAM_MAX_NODES: usize = 2_000_000;
/// Exact-solver admission bounds (matches the portfolio's exact tier).
pub const SOLVE_MAX_NODES: usize = 64;
/// Exact-solver processor-count admission bound.
pub const SOLVE_MAX_PROCS: usize = 4;

/// An API-level failure: HTTP status plus a message for the error body.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status code (400 validation, 422 semantic, 500 internal).
    pub status: u16,
    /// Human-readable description.
    pub msg: String,
}

impl ApiError {
    /// Convenience constructor.
    #[must_use]
    pub fn new(status: u16, msg: impl Into<String>) -> Self {
        ApiError {
            status,
            msg: msg.into(),
        }
    }
}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError::new(400, msg)
}

fn too_large(n: u64, limit: usize) -> ApiError {
    ApiError::new(413, format!("DAG of {n} nodes exceeds limit {limit}"))
}

/// Parsed, validated work for one request.
#[derive(Debug, Clone)]
pub enum Work {
    /// `POST /v1/solve` — exact optimum via the A\* solver.
    Solve {
        /// Problem DAG.
        dag: Dag,
        /// Processors.
        k: usize,
        /// Red pebbles per processor.
        r: usize,
        /// I/O cost weight.
        g: u64,
        /// Settled-state budget handed to the solver.
        max_states: usize,
        /// Solver worker threads (the server caps this at
        /// [`ServeConfig::max_solve_threads`](crate::ServeConfig)).
        threads: usize,
        /// Game mode: vanilla two-level MPP or the three-level
        /// hierarchy (`levels`/`green_cap`/`green_cost` body fields).
        mode: GameMode,
    },
    /// `POST /v1/schedule` — run the heuristic scheduler registry.
    Schedule {
        /// Problem DAG.
        dag: Dag,
        /// Processors.
        k: usize,
        /// Red pebbles per processor.
        r: usize,
        /// I/O cost weight.
        g: u64,
        /// Optional substring filter on scheduler names.
        filter: Option<String>,
        /// Game mode: vanilla two-level MPP or the three-level
        /// hierarchy (`levels`/`green_cap`/`green_cost` body fields).
        mode: GameMode,
    },
    /// `POST /v1/portfolio` — race schedulers + refinement (+ exact).
    Portfolio {
        /// Problem DAG.
        dag: Dag,
        /// Processors.
        k: usize,
        /// Red pebbles per processor.
        r: usize,
        /// I/O cost weight.
        g: u64,
        /// Wall-clock budget for the race.
        budget_ms: u64,
        /// Seed for the randomized workers.
        seed: u64,
        /// Whether the exact solver may join the race.
        use_exact: bool,
    },
    /// `POST /v1/bounds` — Lemma 1 bounds and feasibility.
    Bounds {
        /// Problem DAG.
        dag: Dag,
        /// Processors.
        k: usize,
        /// Red pebbles per processor.
        r: usize,
        /// I/O cost weight.
        g: u64,
    },
    /// `POST /v1/generate` — emit a named gadget/generator DAG.
    Generate {
        /// Generator family name.
        family: String,
        /// Family parameters.
        params: Vec<usize>,
    },
    /// A job that panics when executed (endpoint `panic`, unit tests
    /// only): the fault the worker pool's panic guard is tested with.
    #[cfg(test)]
    Panic,
}

impl Work {
    /// The endpoint name for stats, traces, and result cores.
    #[must_use]
    pub fn endpoint(&self) -> &'static str {
        match self {
            Work::Solve { .. } => "solve",
            Work::Schedule { .. } => "schedule",
            Work::Portfolio { .. } => "portfolio",
            Work::Bounds { .. } => "bounds",
            Work::Generate { .. } => "generate",
            #[cfg(test)]
            Work::Panic => "panic",
        }
    }

    /// Parses and validates the body of `POST /v1/<endpoint>`.
    ///
    /// # Errors
    /// `400` for malformed bodies or out-of-range parameters, `422` for
    /// well-formed but infeasible instances (`r ≤ Δin`).
    pub fn parse(endpoint: &str, body: &Json) -> Result<Work, ApiError> {
        match endpoint {
            "solve" => {
                let (dag, k, r, g) = instance_params(body, MAX_NODES)?;
                if dag.n() > SOLVE_MAX_NODES || k > SOLVE_MAX_PROCS {
                    return Err(bad(format!(
                        "exact solve admits n ≤ {SOLVE_MAX_NODES} and k ≤ {SOLVE_MAX_PROCS} \
                         (got n={}, k={k}); use /v1/portfolio for larger instances",
                        dag.n()
                    )));
                }
                let max_states = opt_u64(body, "max_states")?
                    .map_or(SolveLimits::default().max_states, |v| v as usize)
                    .min(50_000_000);
                let threads = opt_u64(body, "threads")?
                    .map_or(1, |v| v as usize)
                    .clamp(1, rbp_core::MAX_THREADS);
                let mode = mode_from_body(body)?;
                Ok(Work::Solve {
                    dag,
                    k,
                    r,
                    g,
                    max_states,
                    threads,
                    mode,
                })
            }
            "schedule" => {
                let (dag, k, r, g) = instance_params(body, STREAM_MAX_NODES)?;
                let filter = match body.get("scheduler") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(_) => return Err(bad("\"scheduler\" must be a string")),
                };
                let mode = mode_from_body(body)?;
                if mode.is_hier() && dag.n() > MAX_NODES {
                    return Err(bad(format!(
                        "three-level mode is in-memory only: n ≤ {MAX_NODES} \
                         (got n={}); drop \"levels\" for the streaming tier",
                        dag.n()
                    )));
                }
                Ok(Work::Schedule {
                    dag,
                    k,
                    r,
                    g,
                    filter,
                    mode,
                })
            }
            "portfolio" => {
                reject_mode_fields(endpoint, body)?;
                let (dag, k, r, g) = instance_params(body, MAX_NODES)?;
                let budget_ms = opt_u64(body, "budget_ms")?.unwrap_or(1000).clamp(1, 60_000);
                let seed = opt_u64(body, "seed")?.unwrap_or(0);
                let use_exact = match body.get("use_exact") {
                    None | Some(Json::Null) => true,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(bad("\"use_exact\" must be a boolean")),
                };
                Ok(Work::Portfolio {
                    dag,
                    k,
                    r,
                    g,
                    budget_ms,
                    seed,
                    use_exact,
                })
            }
            "bounds" => {
                reject_mode_fields(endpoint, body)?;
                let (dag, k, r, g) = instance_params(body, MAX_NODES)?;
                Ok(Work::Bounds { dag, k, r, g })
            }
            "generate" => {
                reject_mode_fields(endpoint, body)?;
                let spec = body
                    .get("generator")
                    .ok_or_else(|| bad("generate: missing \"generator\" object"))?;
                let (family, params) = generator_spec(spec)?;
                // Reject absurd specs by closed-form size estimate BEFORE
                // building anything — an unguarded `grid(10^6, 10^6)` would
                // otherwise try to allocate a 10^12-node adjacency.
                if let Some(est) = estimate_nodes(&family, &params) {
                    if est > (4 * MAX_NODES) as u64 {
                        return Err(too_large(est, 4 * MAX_NODES));
                    }
                }
                // Build once now so bad specs fail at submit time.
                let dag = build_dag(&family, &params).map_err(bad)?;
                if dag.n() > 4 * MAX_NODES {
                    return Err(too_large(dag.n() as u64, 4 * MAX_NODES));
                }
                Ok(Work::Generate { family, params })
            }
            #[cfg(test)]
            "panic" => Ok(Work::Panic),
            other => Err(ApiError::new(404, format!("unknown endpoint '{other}'"))),
        }
    }

    /// Clamps the solver thread count to the server-side cap. Called by
    /// the server after [`Work::parse`] and **before**
    /// [`Work::cache_key`], so the key reflects the effective count.
    pub fn cap_threads(&mut self, max: usize) {
        if let Work::Solve { threads, .. } = self {
            *threads = (*threads).min(max.max(1));
        }
    }

    /// The effective solver thread count (`None` for non-solve work).
    #[must_use]
    pub fn solve_threads(&self) -> Option<usize> {
        match self {
            Work::Solve { threads, .. } => Some(*threads),
            _ => None,
        }
    }

    /// The canonical-instance cache key: a [`rbp_trace::hash_hex`]
    /// digest over the endpoint, the canonical DAG text, and every
    /// parameter that affects the result.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let canonical = match self {
            Work::Solve {
                dag,
                k,
                r,
                g,
                max_states,
                threads,
                mode,
            } => format!(
                "solve|v1|k={k}|r={r}|g={g}|max_states={max_states}|threads={threads}\
                 |mode={}|{}",
                mode.token(),
                io::to_text(dag)
            ),
            Work::Schedule {
                dag,
                k,
                r,
                g,
                filter,
                mode,
            } => format!(
                "schedule|v1|k={k}|r={r}|g={g}|filter={}|mode={}|{}",
                filter.as_deref().unwrap_or(""),
                mode.token(),
                io::to_text(dag)
            ),
            Work::Portfolio {
                dag,
                k,
                r,
                g,
                budget_ms,
                seed,
                use_exact,
            } => format!(
                "portfolio|v1|k={k}|r={r}|g={g}|budget={budget_ms}|seed={seed}|exact={use_exact}|{}",
                io::to_text(dag)
            ),
            Work::Bounds { dag, k, r, g } => {
                format!("bounds|v1|k={k}|r={r}|g={g}|{}", io::to_text(dag))
            }
            Work::Generate { family, params } => {
                format!("generate|v1|{family}|{params:?}")
            }
            #[cfg(test)]
            Work::Panic => "panic".to_string(),
        };
        rbp_trace::hash_hex(canonical.as_bytes())
    }

    /// Executes the work, producing the JSON result core.
    ///
    /// # Errors
    /// `422` when the solver gives up or a scheduler rejects the
    /// instance; `500` for internal invariant violations.
    pub fn execute(&self) -> Result<Json, ApiError> {
        match self {
            Work::Solve {
                dag,
                k,
                r,
                g,
                max_states,
                threads,
                mode,
            } => {
                let inst = MppInstance::new(dag, *k, *r, *g);
                let config = SearchConfig::default()
                    .with_limits(SolveLimits::states(*max_states))
                    .with_threads(*threads);
                let budget_err = |reason: StopReason| {
                    let why = if reason == StopReason::Unsupported {
                        "does not support this instance (too large for its packed keys, \
                         or its costs overflow its u64 sums within the state budget)"
                            .to_string()
                    } else {
                        format!("exhausted its budget of {max_states} states")
                    };
                    ApiError::new(
                        422,
                        format!("exact solver {why} (reason: {})", reason.as_str()),
                    )
                };
                if let Some(hinst) = HierInstance::from_mode(&inst, *mode) {
                    let out = rbp_hier::solve_hier_with(&hinst, &config);
                    let sol = out.solution.ok_or_else(|| budget_err(out.reason))?;
                    return Ok(Json::obj([
                        ("endpoint", Json::from("solve")),
                        ("mode", Json::from(mode.token())),
                        ("instance", instance_json(dag, *k, *r, *g)),
                        ("total", Json::from(sol.total)),
                        ("io_steps", Json::from(sol.cost.io_steps())),
                        ("green_io_steps", Json::from(sol.cost.green_io_steps())),
                        ("green_stores", Json::from(sol.cost.green_stores)),
                        ("green_loads", Json::from(sol.cost.green_loads)),
                        ("compute_steps", Json::from(sol.cost.computes)),
                        ("moves", Json::from(sol.strategy.len())),
                        ("threads", Json::from(*threads)),
                        ("settled", Json::from(out.stats.settled)),
                        ("proven_optimal", Json::from(true)),
                    ]));
                }
                let out = rbp_core::solve_mpp_with(&inst, &config);
                let sol = out.solution.ok_or_else(|| budget_err(out.reason))?;
                Ok(Json::obj([
                    ("endpoint", Json::from("solve")),
                    ("mode", Json::from(mode.token())),
                    ("instance", instance_json(dag, *k, *r, *g)),
                    ("total", Json::from(sol.total)),
                    ("io_steps", Json::from(sol.cost.io_steps())),
                    ("compute_steps", Json::from(sol.cost.computes)),
                    ("moves", Json::from(sol.strategy.len())),
                    ("threads", Json::from(*threads)),
                    ("settled", Json::from(out.stats.settled)),
                    ("proven_optimal", Json::from(true)),
                ]))
            }
            Work::Schedule {
                dag,
                k,
                r,
                g,
                filter,
                mode,
            } => {
                // Above the in-memory cap, hand the instance to the
                // streaming tier: bounded CSR passes, O(active-set)
                // resident state, strategy discarded as it is verified.
                // (Parsing rejects hier mode above the cap.)
                if dag.n() > MAX_NODES {
                    return schedule_streaming(dag, *k, *r, *g, filter.as_deref());
                }
                if let Some(hinst) =
                    HierInstance::from_mode(&MppInstance::new(dag, *k, *r, *g), *mode)
                {
                    return schedule_hier(&hinst, *mode, filter.as_deref());
                }
                let inst = MppInstance::new(dag, *k, *r, *g);
                let mut rows = Vec::new();
                let mut best: Option<(u64, String)> = None;
                for s in all_schedulers() {
                    let name = s.name();
                    if let Some(f) = filter {
                        if !name.contains(f.as_str()) {
                            continue;
                        }
                    }
                    let run = s
                        .schedule(&inst)
                        .map_err(|e| ApiError::new(422, format!("{name}: {e}")))?;
                    let stats = MppRunStats::analyze(&inst, &run.strategy);
                    if best.as_ref().is_none_or(|(t, _)| stats.total < *t) {
                        best = Some((stats.total, name.clone()));
                    }
                    rows.push(Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("total", Json::from(stats.total)),
                        ("io_steps", Json::from(stats.cost.io_steps())),
                        ("surplus", Json::from(stats.surplus)),
                        ("recomputations", Json::from(stats.recomputations)),
                    ]));
                }
                let (best_total, best_name) = best.ok_or_else(|| {
                    ApiError::new(
                        422,
                        format!("no scheduler matches '{}'", filter.as_deref().unwrap_or("")),
                    )
                })?;
                Ok(Json::obj([
                    ("endpoint", Json::from("schedule")),
                    ("tier", Json::from("in-memory")),
                    ("mode", Json::from(mode.token())),
                    ("instance", instance_json(dag, *k, *r, *g)),
                    ("schedulers", Json::Arr(rows)),
                    (
                        "best",
                        Json::obj([
                            ("name", Json::from(best_name.as_str())),
                            ("total", Json::from(best_total)),
                        ]),
                    ),
                ]))
            }
            Work::Portfolio {
                dag,
                k,
                r,
                g,
                budget_ms,
                seed,
                use_exact,
            } => {
                let inst = MppInstance::new(dag, *k, *r, *g);
                let cfg = PortfolioConfig {
                    budget_millis: *budget_ms,
                    seed: *seed,
                    use_exact: *use_exact,
                    ..PortfolioConfig::default()
                };
                let out = race(&inst, &cfg).map_err(|e| ApiError::new(422, e.to_string()))?;
                let baseline = out.entries.first().and_then(|e| e.total);
                let entries = out.entries.iter().map(|e| {
                    Json::obj([
                        ("name", Json::from(e.name.as_str())),
                        ("total", e.total.map_or(Json::Null, Json::from)),
                        ("millis", Json::from(e.millis)),
                    ])
                });
                Ok(Json::obj([
                    ("endpoint", Json::from("portfolio")),
                    ("instance", instance_json(dag, *k, *r, *g)),
                    ("total", Json::from(out.total)),
                    ("winner", Json::from(out.provenance.as_str())),
                    ("baseline", baseline.map_or(Json::Null, Json::from)),
                    ("proven_optimal", Json::from(out.proven_optimal)),
                    ("entries", Json::arr(entries)),
                ]))
            }
            Work::Bounds { dag, k, r, g } => {
                let inst = MppInstance::new(dag, *k, *r, *g);
                Ok(Json::obj([
                    ("endpoint", Json::from("bounds")),
                    ("instance", instance_json(dag, *k, *r, *g)),
                    ("feasible", Json::from(inst.is_feasible())),
                    ("lower", Json::from(rbp_bounds::trivial::lower(&inst))),
                    ("upper", Json::from(rbp_bounds::trivial::upper(&inst))),
                    (
                        "greedy_factor",
                        Json::from(rbp_bounds::trivial::greedy_factor(&inst)),
                    ),
                ]))
            }
            Work::Generate { family, params } => {
                let dag = build_dag(family, params).map_err(|m| ApiError::new(400, m))?;
                Ok(Json::obj([
                    ("endpoint", Json::from("generate")),
                    ("family", Json::from(family.as_str())),
                    ("params", Json::arr(params.iter().map(|&p| Json::from(p)))),
                    ("name", Json::from(dag.name())),
                    ("n", Json::from(dag.n())),
                    ("edges", Json::from(dag.edges().count())),
                    ("dag_text", Json::from(io::to_text(&dag))),
                ]))
            }
            #[cfg(test)]
            Work::Panic => panic!("a test-only job that panics"),
        }
    }
}

/// The `/v1/schedule` streaming tier: runs every registered
/// [`rbp_stream`] scheduler through a rule-enforcing simulator with the
/// strategy discarded move-by-move ([`NullSink`]) — the server reports
/// costs and throughput, it does not ship million-move strategies over
/// HTTP. Emits `stream.*` trace counters/gauges per run.
fn schedule_streaming(
    dag: &Dag,
    k: usize,
    r: usize,
    g: u64,
    filter: Option<&str>,
) -> Result<Json, ApiError> {
    let model = CostModel::mpp(g);
    let mut rows = Vec::new();
    let mut best: Option<(u64, String)> = None;
    for s in all_stream_schedulers() {
        let name = s.name();
        if let Some(f) = filter {
            if !name.contains(f) {
                continue;
            }
        }
        let mut sink = NullSink::new();
        let run = s
            .schedule(dag, k, r, &mut sink)
            .map_err(|e| ApiError::new(422, format!("{name}: {e}")))?;
        rbp_stream::trace_stream_run(&name, &run);
        let total = run.cost.total(model);
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, name.clone()));
        }
        rows.push(Json::obj([
            ("name", Json::from(name.as_str())),
            ("total", Json::from(total)),
            ("io_steps", Json::from(run.cost.io_steps())),
            ("moves", Json::from(run.moves)),
            ("passes", Json::from(run.passes)),
            ("peak_active_set", Json::from(run.peak_active_set)),
            ("nodes_per_sec", Json::from(run.nodes_per_sec())),
        ]));
    }
    let (best_total, best_name) = best.ok_or_else(|| {
        ApiError::new(
            422,
            format!("no streaming scheduler matches '{}'", filter.unwrap_or(""),),
        )
    })?;
    Ok(Json::obj([
        ("endpoint", Json::from("schedule")),
        ("tier", Json::from("streaming")),
        ("instance", instance_json(dag, k, r, g)),
        ("schedulers", Json::Arr(rows)),
        (
            "best",
            Json::obj([
                ("name", Json::from(best_name.as_str())),
                ("total", Json::from(best_total)),
            ]),
        ),
    ]))
}

/// The `/v1/schedule` three-level tier: runs the [`rbp_hier`] scheduler
/// registry, with blue and green traffic attributed separately in every
/// row.
fn schedule_hier(
    inst: &HierInstance,
    mode: GameMode,
    filter: Option<&str>,
) -> Result<Json, ApiError> {
    let mut rows = Vec::new();
    let mut best: Option<(u64, String)> = None;
    for s in all_hier_schedulers() {
        let name = s.name();
        if let Some(f) = filter {
            if !name.contains(f) {
                continue;
            }
        }
        let run = s
            .schedule(inst)
            .map_err(|e| ApiError::new(422, format!("{name}: {e}")))?;
        let total = run.cost.total(inst.model);
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, name.clone()));
        }
        rows.push(Json::obj([
            ("name", Json::from(name.as_str())),
            ("total", Json::from(total)),
            ("io_steps", Json::from(run.cost.io_steps())),
            ("green_io_steps", Json::from(run.cost.green_io_steps())),
            ("green_stores", Json::from(run.cost.green_stores)),
            ("green_loads", Json::from(run.cost.green_loads)),
            ("compute_steps", Json::from(run.cost.computes)),
        ]));
    }
    let (best_total, best_name) = best.ok_or_else(|| {
        ApiError::new(
            422,
            format!("no scheduler matches '{}'", filter.unwrap_or("")),
        )
    })?;
    Ok(Json::obj([
        ("endpoint", Json::from("schedule")),
        ("tier", Json::from("in-memory")),
        ("mode", Json::from(mode.token())),
        (
            "instance",
            instance_json(inst.dag, inst.k, inst.r, inst.model.g),
        ),
        ("schedulers", Json::Arr(rows)),
        (
            "best",
            Json::obj([
                ("name", Json::from(best_name.as_str())),
                ("total", Json::from(best_total)),
            ]),
        ),
    ]))
}

/// Parses the shared game-mode fields (`levels`, `green_cap`,
/// `green_cost`) through the workspace-wide [`GameMode`] parser — the
/// same semantics as the CLI's `--levels`/`--green-cap`/`--green-cost`.
fn mode_from_body(body: &Json) -> Result<GameMode, ApiError> {
    GameMode::from_flags(
        opt_u64(body, "levels")?,
        opt_u64(body, "green_cap")?,
        opt_u64(body, "green_cost")?,
    )
    .map_err(bad)
}

/// Refuses the game-mode fields on an endpoint that takes no game mode
/// and would otherwise answer the two-level question regardless.
fn reject_mode_fields(endpoint: &str, body: &Json) -> Result<(), ApiError> {
    for key in ["levels", "green_cap", "green_cost"] {
        if !matches!(body.get(key), None | Some(Json::Null)) {
            return Err(bad(format!(
                "\"{key}\" is not accepted by /v1/{endpoint}: \
                 game modes apply to /v1/solve and /v1/schedule only"
            )));
        }
    }
    Ok(())
}

/// Extracts the shared `(dag, k, r, g)` instance parameters. `max_nodes`
/// is the endpoint's admission cap ([`MAX_NODES`] everywhere except
/// `/v1/schedule`, whose streaming tier accepts [`STREAM_MAX_NODES`]).
fn instance_params(body: &Json, max_nodes: usize) -> Result<(Dag, usize, usize, u64), ApiError> {
    let dag = dag_from_body(body, max_nodes)?;
    let k = req_u64(body, "k")? as usize;
    let r = req_u64(body, "r")? as usize;
    let g = req_u64(body, "g")?;
    if k == 0 || k > 512 {
        return Err(bad(format!("k={k} out of range 1..=512")));
    }
    if r == 0 || r > 1_000_000 {
        return Err(bad(format!("r={r} out of range 1..=1000000")));
    }
    if dag.n() == 0 {
        return Err(bad("DAG has no nodes"));
    }
    if dag.n() > max_nodes {
        return Err(too_large(dag.n() as u64, max_nodes));
    }
    if r <= dag.max_in_degree() {
        return Err(ApiError::new(
            422,
            format!(
                "infeasible: r={r} but the DAG needs r ≥ {} (max in-degree + 1)",
                dag.max_in_degree() + 1
            ),
        ));
    }
    Ok((dag, k, r, g))
}

/// Builds the DAG from either `"dag_text"` or `"generator"`, rejecting
/// over-limit inputs with `413` *before* any proportional allocation:
/// inline text is pre-scanned for its `nodes <n>` declaration and
/// generator specs are sized by [`estimate_nodes`].
fn dag_from_body(body: &Json, max_nodes: usize) -> Result<Dag, ApiError> {
    match (body.get("dag_text"), body.get("generator")) {
        (Some(Json::Str(text)), None) => {
            check_declared_nodes(text, max_nodes)?;
            io::parse(text).map_err(|e| bad(format!("dag_text: {e}")))
        }
        (None, Some(spec)) => {
            let (family, params) = generator_spec(spec)?;
            if let Some(est) = estimate_nodes(&family, &params) {
                if est > max_nodes as u64 {
                    return Err(too_large(est, max_nodes));
                }
            }
            build_dag(&family, &params).map_err(bad)
        }
        (Some(_), Some(_)) => Err(bad("give either \"dag_text\" or \"generator\", not both")),
        (Some(_), None) => Err(bad("\"dag_text\" must be a string")),
        (None, None) => Err(bad("missing DAG: provide \"dag_text\" or \"generator\"")),
    }
}

/// Pre-scan of the `rbp_dag::io` text header: the format declares
/// `nodes <n>` up front, so an over-limit count 413s without parsing
/// the (potentially huge) edge list. Headers the scan cannot make
/// sense of fall through to [`io::parse`]'s own error reporting.
fn check_declared_nodes(text: &str, max_nodes: usize) -> Result<(), ApiError> {
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("dag ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("nodes ") {
            if let Ok(n) = rest.trim().parse::<u64>() {
                if n > max_nodes as u64 {
                    return Err(too_large(n, max_nodes));
                }
            }
        }
        break;
    }
    Ok(())
}

/// Closed-form (saturating) node-count estimate for a generator spec,
/// mirroring the sizes produced by [`build_dag`]. Used to reject absurd
/// requests with `413` before any allocation; `None` for families the
/// registry does not know (those fail later with `400`). Estimates are
/// exact or slight over-approximations — never drastic under-counts —
/// so nothing huge slips past the guard. Missing parameters read as 0.
#[must_use]
pub fn estimate_nodes(family: &str, params: &[usize]) -> Option<u64> {
    let p = std::array::from_fn(|i| params.get(i).copied().unwrap_or(0) as u64);
    family_named(family).map(|f| (f.estimate)(p))
}

fn generator_spec(spec: &Json) -> Result<(String, Vec<usize>), ApiError> {
    let family = spec
        .get("family")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("generator: missing \"family\" string"))?
        .to_string();
    let params = match spec.get("params") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&u| u <= (1 << 20))
                    .map(|u| u as usize)
                    .ok_or_else(|| bad("generator: params must be non-negative integers ≤ 2^20"))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad("generator: \"params\" must be an array")),
    };
    Ok((family, params))
}

fn req_u64(body: &Json, key: &str) -> Result<u64, ApiError> {
    body.get(key)
        .ok_or_else(|| bad(format!("missing \"{key}\"")))?
        .as_u64()
        .ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer")))
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer"))),
    }
}

/// The instance summary object embedded in every result core, including
/// the canonical-instance fingerprint (`rbp_trace::hash_hex` over DAG
/// text + parameters).
#[must_use]
pub fn instance_json(dag: &Dag, k: usize, r: usize, g: u64) -> Json {
    let hash =
        rbp_trace::hash_hex(format!("instance|k={k}|r={r}|g={g}|{}", io::to_text(dag)).as_bytes());
    Json::obj([
        ("name", Json::from(dag.name())),
        ("n", Json::from(dag.n())),
        ("k", Json::from(k)),
        ("r", Json::from(r)),
        ("g", Json::from(g)),
        ("hash", Json::from(hash)),
    ])
}

/// Builds a generated DAG by family name — the shared registry behind
/// `POST /v1/generate`, generator specs in instance bodies, and the
/// `rbp gen` CLI subcommand.
///
/// # Errors
/// A human-readable message for unknown families or wrong arity.
pub fn build_dag(family: &str, params: &[usize]) -> Result<Dag, String> {
    let Some(f) = family_named(family) else {
        let names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        return Err(format!("unknown family '{family}' ({})", names.join("|")));
    };
    if params.len() != f.arity {
        return Err(format!(
            "{family}: expected {} parameters, got {}",
            f.arity,
            params.len()
        ));
    }
    (f.build)(params)
}

/// One generator family of the registry.
struct Family {
    name: &'static str,
    /// Number of parameters [`build_dag`] requires.
    arity: usize,
    /// Closed-form node count over the parameters (zero-padded).
    estimate: fn([u64; 4]) -> u64,
    /// Builds the DAG from exactly `arity` parameters.
    build: fn(&[usize]) -> Result<Dag, String>,
}

fn family_named(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// The generator registry behind [`build_dag`] and [`estimate_nodes`],
/// in the order the unknown-family message lists it.
const FAMILIES: [Family; 12] = [
    Family {
        name: "chain",
        arity: 1,
        estimate: |p| p[0],
        build: |p| Ok(generators::chain(p[0])),
    },
    Family {
        name: "chains",
        arity: 2,
        estimate: |p| p[0].saturating_mul(p[1]),
        build: |p| Ok(generators::independent_chains(p[0], p[1])),
    },
    Family {
        name: "tree",
        arity: 1,
        estimate: |p| p[0].saturating_mul(2),
        build: |p| Ok(generators::binary_in_tree(p[0])),
    },
    Family {
        name: "grid",
        arity: 2,
        estimate: |p| p[0].saturating_mul(p[1]),
        build: |p| Ok(generators::grid(p[0], p[1])),
    },
    Family {
        name: "fft",
        arity: 1,
        estimate: |p| {
            let log_n = p[0].min(62) as u32;
            (1u64 << log_n).saturating_mul(u64::from(log_n) + 1)
        },
        build: |p| {
            let log_n = u32::try_from(p[0]).map_err(|_| "fft: parameter too large".to_string())?;
            if log_n > 16 {
                return Err("fft: log_n capped at 16".to_string());
            }
            Ok(generators::fft(log_n))
        },
    },
    Family {
        name: "matmul",
        arity: 1,
        // 2n² inputs + per output cell n products and n−1 partial sums.
        estimate: |p| {
            let n = p[0];
            n.saturating_mul(n)
                .saturating_mul(n.saturating_mul(2).saturating_add(2))
        },
        build: |p| Ok(generators::matmul(p[0])),
    },
    Family {
        name: "diamond",
        arity: 1,
        estimate: |p| p[0].saturating_add(2),
        build: |p| Ok(generators::diamond(p[0])),
    },
    Family {
        name: "pyramid",
        arity: 1,
        estimate: |p| {
            let h = p[0];
            h.saturating_add(1).saturating_mul(h.saturating_add(2)) / 2
        },
        build: |p| Ok(generators::pyramid(p[0])),
    },
    Family {
        name: "zipper",
        arity: 2,
        estimate: |p| p[0].saturating_mul(2).saturating_add(p[1]),
        build: |p| Ok(rbp_gadgets::Zipper::build(p[0], p[1], 0).dag),
    },
    Family {
        name: "hier_skip",
        arity: 1,
        estimate: |p| p[0].saturating_mul(2).saturating_add(5),
        build: |p| {
            if p[0] == 0 {
                return Err("hier_skip: chain length must be ≥ 1".to_string());
            }
            Ok(rbp_gadgets::HierSkip::build(p[0]).dag)
        },
    },
    Family {
        name: "random",
        arity: 2,
        estimate: |p| p[0],
        build: |p| Ok(generators::random_dag(p[0], 0.2, p[1] as u64)),
    },
    Family {
        name: "layered",
        arity: 4,
        estimate: |p| p[0].saturating_mul(p[1]),
        build: |p| Ok(generators::layered_random(p[0], p[1], p[2], p[3] as u64)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_body(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn solve_body_roundtrip_and_cache_key_stability() {
        let body =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        let w1 = Work::parse("solve", &body).unwrap();
        let w2 = Work::parse("solve", &body).unwrap();
        assert_eq!(w1.endpoint(), "solve");
        assert_eq!(w1.cache_key(), w2.cache_key());

        // The same instance given as inline text hits the same key.
        let dag = build_dag("grid", &[2, 3]).unwrap();
        let text = io::to_text(&dag);
        let inline = Json::obj([
            ("dag_text", Json::from(text)),
            ("k", Json::from(2u64)),
            ("r", Json::from(3u64)),
            ("g", Json::from(2u64)),
        ]);
        let w3 = Work::parse("solve", &inline).unwrap();
        assert_eq!(w1.cache_key(), w3.cache_key());

        // Different parameters → different key.
        let other =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":4,"g":2}"#);
        assert_ne!(
            Work::parse("solve", &other).unwrap().cache_key(),
            w1.cache_key()
        );
    }

    #[test]
    fn solve_threads_parse_cap_and_key() {
        let body = parse_body(
            r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2,"threads":16}"#,
        );
        let mut w = Work::parse("solve", &body).unwrap();
        assert_eq!(w.solve_threads(), Some(16));
        let key16 = w.cache_key();

        // The server-side cap clamps before keying; the key follows the
        // effective count.
        w.cap_threads(4);
        assert_eq!(w.solve_threads(), Some(4));
        assert_ne!(w.cache_key(), key16);

        // Default is single-threaded; zero clamps up to one.
        let plain =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        assert_eq!(
            Work::parse("solve", &plain).unwrap().solve_threads(),
            Some(1)
        );
        let zero = parse_body(
            r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2,"threads":0}"#,
        );
        assert_eq!(
            Work::parse("solve", &zero).unwrap().solve_threads(),
            Some(1)
        );
        assert_eq!(Work::parse("bounds", &plain).unwrap().solve_threads(), None);
    }

    #[test]
    fn parallel_solve_executes_and_matches_sequential_total() {
        let body =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        let seq = Work::parse("solve", &body).unwrap().execute().unwrap();
        let par_body = parse_body(
            r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2,"threads":2}"#,
        );
        let par = Work::parse("solve", &par_body).unwrap().execute().unwrap();
        assert_eq!(
            seq.get("total").unwrap().as_u64(),
            par.get("total").unwrap().as_u64()
        );
        assert_eq!(par.get("threads").unwrap().as_u64(), Some(2));
        // A field this schema no longer reads is ignored like any other
        // unknown one: same work, same cache key.
        let old_client = parse_body(
            r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2,"threads":2,"partition":"anchors"}"#,
        );
        assert_eq!(
            Work::parse("solve", &old_client).unwrap().cache_key(),
            Work::parse("solve", &par_body).unwrap().cache_key()
        );
    }

    #[test]
    fn validation_failures_carry_status() {
        let missing = parse_body(r#"{"k":2,"r":3,"g":2}"#);
        assert_eq!(Work::parse("solve", &missing).unwrap_err().status, 400);

        let infeasible =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":1,"g":2}"#);
        assert_eq!(Work::parse("solve", &infeasible).unwrap_err().status, 422);

        let too_big =
            parse_body(r#"{"generator":{"family":"grid","params":[30,30]},"k":2,"r":3,"g":2}"#);
        let err = Work::parse("solve", &too_big).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.msg.contains("portfolio"), "{}", err.msg);

        let unknown = Work::parse("nope", &missing).unwrap_err();
        assert_eq!(unknown.status, 404);
    }

    #[test]
    fn solve_executes_and_reports_optimum() {
        let body = parse_body(r#"{"generator":{"family":"chain","params":[3]},"k":1,"r":2,"g":1}"#);
        let work = Work::parse("solve", &body).unwrap();
        let core = work.execute().unwrap();
        assert_eq!(core.get("endpoint").unwrap().as_str(), Some("solve"));
        assert_eq!(core.get("proven_optimal"), Some(&Json::Bool(true)));
        assert!(core.get("total").unwrap().as_u64().unwrap() >= 3);
        let inst = core.get("instance").unwrap();
        assert_eq!(inst.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(inst.get("hash").unwrap().as_str().unwrap().len(), 16);
    }

    #[test]
    fn schedule_reports_registry_and_best() {
        let body =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        let work = Work::parse("schedule", &body).unwrap();
        let core = work.execute().unwrap();
        let rows = core.get("schedulers").unwrap().as_arr().unwrap();
        assert!(rows.len() >= 4, "registry has several schedulers");
        let best = core
            .get("best")
            .unwrap()
            .get("total")
            .unwrap()
            .as_u64()
            .unwrap();
        let min = rows
            .iter()
            .map(|r| r.get("total").unwrap().as_u64().unwrap())
            .min()
            .unwrap();
        assert_eq!(best, min);
    }

    #[test]
    fn bounds_sandwich_holds() {
        let body =
            parse_body(r#"{"generator":{"family":"grid","params":[3,3]},"k":2,"r":3,"g":2}"#);
        let core = Work::parse("bounds", &body).unwrap().execute().unwrap();
        let lower = core.get("lower").unwrap().as_u64().unwrap();
        let upper = core.get("upper").unwrap().as_u64().unwrap();
        assert!(lower <= upper);
        assert_eq!(core.get("feasible"), Some(&Json::Bool(true)));
    }

    #[test]
    fn generate_emits_parseable_dag_text() {
        let body = parse_body(r#"{"generator":{"family":"fft","params":[2]}}"#);
        let core = Work::parse("generate", &body).unwrap().execute().unwrap();
        let text = core.get("dag_text").unwrap().as_str().unwrap();
        let dag = io::parse(text).unwrap();
        assert_eq!(dag.n(), core.get("n").unwrap().as_u64().unwrap() as usize);
    }

    #[test]
    fn build_dag_rejects_unknown_family_and_bad_arity() {
        assert!(build_dag("nope", &[]).is_err());
        assert!(build_dag("grid", &[3]).is_err());
        assert!(build_dag("grid", &[3, 3]).is_ok());
    }

    /// An absurd generator spec must 413 from the size estimate alone —
    /// a `grid(10^6, 10^6)` request would otherwise try to allocate a
    /// 10^12-node adjacency before the old post-build check ever ran.
    #[test]
    fn absurd_generator_specs_413_without_building() {
        for endpoint in ["generate", "schedule", "solve", "bounds"] {
            let body = parse_body(
                r#"{"generator":{"family":"grid","params":[1000000,1000000]},"k":2,"r":3,"g":2}"#,
            );
            let err = Work::parse(endpoint, &body).unwrap_err();
            assert_eq!(err.status, 413, "{endpoint}: {}", err.msg);
            assert!(err.msg.contains("exceeds limit"), "{endpoint}: {}", err.msg);
        }
        // Every registry family has an estimate, and the estimate never
        // understates the built size (so nothing slips past the guard).
        for (family, params) in [
            ("chain", vec![17]),
            ("chains", vec![3, 5]),
            ("tree", vec![8]),
            ("grid", vec![4, 6]),
            ("fft", vec![3]),
            ("matmul", vec![3]),
            ("diamond", vec![5]),
            ("pyramid", vec![4]),
            ("zipper", vec![3, 4]),
            ("hier_skip", vec![3]),
            ("random", vec![12, 7]),
            ("layered", vec![3, 4, 2, 9]),
        ] {
            let est = estimate_nodes(family, &params)
                .unwrap_or_else(|| panic!("{family} has no estimate"));
            let built = build_dag(family, &params).unwrap().n() as u64;
            assert!(est >= built, "{family}: estimate {est} < built {built}");
            assert!(
                est <= 2 * built + 2,
                "{family}: estimate {est} way over {built}"
            );
        }
        assert_eq!(estimate_nodes("nope", &[]), None);
    }

    /// Inline `dag_text` is capped by its declared `nodes <n>` header
    /// before the edge list is parsed.
    #[test]
    fn huge_inline_dag_text_413s_before_parsing() {
        let body = Json::obj([
            (
                "dag_text",
                Json::from("dag evil\nnodes 99999999\nedge 0 1\nend\n"),
            ),
            ("k", Json::from(2u64)),
            ("r", Json::from(3u64)),
            ("g", Json::from(2u64)),
        ]);
        let err = Work::parse("schedule", &body).unwrap_err();
        assert_eq!(err.status, 413, "{}", err.msg);
        // A small declared count still parses (and still validates).
        let ok = Json::obj([
            ("dag_text", Json::from("dag tiny\nnodes 2\nedge 0 1\nend\n")),
            ("k", Json::from(1u64)),
            ("r", Json::from(2u64)),
            ("g", Json::from(2u64)),
        ]);
        assert!(Work::parse("schedule", &ok).is_ok());
    }

    /// The game-mode fields parse through the shared [`GameMode`]
    /// parser, reshape the cache key, and flow through to a hierarchical
    /// solve whose response echoes the canonical mode token.
    #[test]
    fn solve_mode_fields_key_and_execute() {
        let vanilla =
            parse_body(r#"{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3}"#);
        let wv = Work::parse("solve", &vanilla).unwrap();
        let hier = parse_body(
            r#"{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3,
                "levels":3,"green_cap":1,"green_cost":1}"#,
        );
        let wh = Work::parse("solve", &hier).unwrap();
        assert_ne!(wv.cache_key(), wh.cache_key(), "mode must be cache-keyed");

        let cv = wv.execute().unwrap();
        let ch = wh.execute().unwrap();
        assert_eq!(cv.get("mode").unwrap().as_str(), Some("mpp"));
        assert_eq!(ch.get("mode").unwrap().as_str(), Some("hier:cap=1:cost=1"));
        // The separation gadget: the mid tier strictly beats vanilla.
        let tv = cv.get("total").unwrap().as_u64().unwrap();
        let th = ch.get("total").unwrap().as_u64().unwrap();
        assert!(th < tv, "hier {th} !< vanilla {tv}");
        assert!(ch.get("green_io_steps").unwrap().as_u64().unwrap() > 0);

        // Defaulted green parameters are keyed at their canonical values.
        let defaulted = parse_body(
            r#"{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3,"levels":3}"#,
        );
        let wd = Work::parse("solve", &defaulted).unwrap();
        assert_ne!(wd.cache_key(), wv.cache_key());
        assert_ne!(wd.cache_key(), wh.cache_key());

        // Green fields without levels=3 are rejected, as in the CLI.
        let stray = parse_body(
            r#"{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3,"green_cap":2}"#,
        );
        assert_eq!(Work::parse("solve", &stray).unwrap_err().status, 400);
    }

    /// Endpoints without a game mode refuse the mode fields instead of
    /// silently answering the two-level question.
    #[test]
    fn modeless_endpoints_reject_game_mode_fields() {
        let instance = r#""generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2"#;
        for endpoint in ["bounds", "portfolio", "generate"] {
            for field in [r#""levels":3"#, r#""green_cap":2"#, r#""green_cost":1"#] {
                let body = parse_body(&format!("{{{instance},{field}}}"));
                let err = Work::parse(endpoint, &body).unwrap_err();
                assert_eq!(err.status, 400, "{endpoint} {field}: {}", err.msg);
                assert!(err.msg.contains("not accepted"), "{endpoint}: {}", err.msg);
            }
            // A null field is an absent one, and the plain body parses.
            let body = parse_body(&format!(r#"{{{instance},"levels":null}}"#));
            assert!(Work::parse(endpoint, &body).is_ok(), "{endpoint}");
        }
    }

    /// `levels: 3` on the schedule endpoint runs the hier registry with
    /// green traffic attributed per row — and is rejected above the
    /// in-memory cap rather than silently falling back to two levels.
    #[test]
    fn schedule_mode_rows_and_streaming_rejection() {
        let body = parse_body(
            r#"{"generator":{"family":"grid","params":[3,3]},"k":2,"r":4,"g":3,
                "levels":3,"green_cap":4,"green_cost":1}"#,
        );
        let core = Work::parse("schedule", &body).unwrap().execute().unwrap();
        assert_eq!(
            core.get("mode").unwrap().as_str(),
            Some("hier:cap=4:cost=1")
        );
        let rows = core.get("schedulers").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), all_hier_schedulers().len());
        for row in rows {
            assert!(row.get("green_io_steps").unwrap().as_u64().is_some());
        }
        // Vanilla responses echo the vanilla token.
        let plain =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        let core = Work::parse("schedule", &plain).unwrap().execute().unwrap();
        assert_eq!(core.get("mode").unwrap().as_str(), Some("mpp"));

        let big = parse_body(
            r#"{"generator":{"family":"grid","params":[70,70]},"k":4,"r":4,"g":2,"levels":3}"#,
        );
        let err = Work::parse("schedule", &big).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.msg.contains("in-memory only"), "{}", err.msg);
    }

    /// Above [`MAX_NODES`] the schedule endpoint switches to the
    /// streaming tier: stream-scheduler rows with throughput stats and
    /// a `tier` marker, best = min over rows.
    #[test]
    fn schedule_auto_selects_streaming_tier_above_threshold() {
        // grid(70, 70) = 4900 nodes: past the in-memory cap of 4096,
        // comfortably inside STREAM_MAX_NODES.
        let body =
            parse_body(r#"{"generator":{"family":"grid","params":[70,70]},"k":4,"r":4,"g":2}"#);
        let work = Work::parse("schedule", &body).unwrap();
        let core = work.execute().unwrap();
        assert_eq!(core.get("tier").unwrap().as_str(), Some("streaming"));
        let rows = core.get("schedulers").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), rbp_stream::all_stream_schedulers().len());
        for row in rows {
            assert!(row.get("total").unwrap().as_u64().is_some());
            assert!(row.get("passes").unwrap().as_u64().is_some());
            assert!(row.get("peak_active_set").unwrap().as_u64().is_some());
            assert!(row.get("nodes_per_sec").unwrap().as_f64().is_some());
        }
        let best = core
            .get("best")
            .unwrap()
            .get("total")
            .unwrap()
            .as_u64()
            .unwrap();
        let min = rows
            .iter()
            .map(|r| r.get("total").unwrap().as_u64().unwrap())
            .min()
            .unwrap();
        assert_eq!(best, min);

        // Below the threshold the classic tier answers and says so.
        let small =
            parse_body(r#"{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}"#);
        let core = Work::parse("schedule", &small).unwrap().execute().unwrap();
        assert_eq!(core.get("tier").unwrap().as_str(), Some("in-memory"));

        // The streaming tier honours the name filter, 422s on no match.
        let filtered = parse_body(
            r#"{"generator":{"family":"grid","params":[70,70]},"k":4,"r":4,"g":2,"scheduler":"wavefront"}"#,
        );
        let core = Work::parse("schedule", &filtered)
            .unwrap()
            .execute()
            .unwrap();
        let rows = core.get("schedulers").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        let nomatch = parse_body(
            r#"{"generator":{"family":"grid","params":[70,70]},"k":4,"r":4,"g":2,"scheduler":"zzz"}"#,
        );
        let err = Work::parse("schedule", &nomatch)
            .unwrap()
            .execute()
            .unwrap_err();
        assert_eq!(err.status, 422);
    }
}
