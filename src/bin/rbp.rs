//! `rbp` — command-line front end.
//!
//! ```text
//! rbp stats     <dag.txt>                      DAG statistics
//! rbp schedule  <dag.txt> <k> <r> <g> [name]   run a scheduler, print cost breakdown
//! rbp solve     <dag.txt> <k> <r> <g> [opts]   exact optimum (small DAGs)
//! rbp improve   <dag.txt> <k> <r> <g> [opts]   anytime local-search refinement
//! rbp portfolio <dag.txt> <k> <r> <g> [opts]   race schedulers + refinement + exact
//! rbp bounds    <dag.txt> <k> <r> <g>          Lemma 1 bounds + feasibility
//! rbp dot       <dag.txt>                      Graphviz DOT to stdout
//! rbp gen       <family> [params…]             emit a generated DAG as text
//! rbp report    <trace.jsonl>                  render a trace file as markdown
//! rbp serve     [opts]                         run the HTTP pebbling service
//! ```
//!
//! `schedule` options: `--stream` (run the `rbp-stream` streaming tier
//! instead of the in-memory registry — bounded CSR passes,
//! O(active-set) resident state, suitable for million-node DAGs),
//! `--out <file>` (with `--stream` and exactly one scheduler selected:
//! stream the strategy to JSONL re-loadable by `rbp improve --in`).
//! `solve` options: `--threads <N>` (default 1; `≥ 2` runs the
//! hash-sharded parallel engine, same proven optimum), `--max-states
//! <N>` (settled-state budget), `--deadline-ms <N>` (wall-clock limit;
//! budget and deadline exhaustion are reported distinctly).
//!
//! `solve`, `schedule`, `portfolio`, and `bounds` accept the game-mode
//! flags `--levels <2|3>`, `--green-cap <N>`, and `--green-cost <N>`
//! (parsed by the workspace-wide `rbp_core::GameMode`, same semantics
//! as the serve API): `--levels 3` switches to the three-level
//! red/green/blue hierarchy of the `rbp-hier` crate, with a shared
//! mid tier of capacity `--green-cap` (default 2) whose I/O rule costs
//! `--green-cost` (default 1). Without `--levels 3` the green flags are
//! rejected and the vanilla two-level paths run unchanged.
//! `improve` options: `--budget-ms <N>` (default 1000), `--driver
//! auto|hill|anneal|lns`, `--in <file>` (resume from a saved strategy),
//! `--out <file>` (save the refined strategy as JSONL).
//! `portfolio` options: `--budget-ms <N>` (default 1000),
//! `--no-exact`, `--exact-threads <N>` (for the exact lane). Both honor
//! the workspace-wide `RBP_SEED` environment variable for deterministic
//! reruns.
//!
//! `serve` options: `--addr <host:port>` (default `127.0.0.1:8017`;
//! port `0` picks an ephemeral one, printed on startup), `--workers
//! <N>`, `--queue-cap <N>`, `--cache-cap <N>`, `--deadline-ms <N>`,
//! `--max-solve-threads <N>` (per-request solver-thread cap, default 4),
//! `--store-dir <dir>` (persistent result store: results survive
//! restarts and warm the cache on boot), `--store-cap-bytes <N>`
//! (store log size cap, default 64 MiB; 0 = unbounded). The HTTP API,
//! the on-disk store format, and the binary wire protocol are
//! documented in `docs/SCHEMAS.md` (operations guide:
//! `docs/OPERATIONS.md`); `POST /v1/shutdown` drains and stops the
//! server.
//!
//! DAG files use the `rbp_dag::io` text format (see crate docs).
//!
//! Every subcommand emits a structured trace when the `RBP_TRACE`
//! environment variable names a destination file (`docs/SCHEMAS.md`
//! documents the JSONL schema); `rbp report` renders such a file back
//! into the tables and counters it contains.

use std::process::ExitCode;

/// `print!` and `println!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

use rbp::bounds::trivial;
use rbp::core::rbp_dag::{dot, io, Dag, DagStats};
use rbp::core::{
    async_makespan, batchify, GameMode, MppInstance, MppRun, MppRunStats, SearchConfig,
    SolveLimits, StopReason, StreamHeader,
};
use rbp::hier::{all_hier_schedulers, HierInstance};
use rbp::refine::{persist, Budget, Driver, PortfolioConfig, RefineConfig};
use rbp::schedulers::all_schedulers;
use rbp::util::env_seed;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    init_trace(&args);
    let result = run(&args);
    rbp::trace::uninstall();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: rbp <stats|schedule|solve|improve|portfolio|bounds|dot|gen|report|serve> …  (see docs in src/bin/rbp.rs)"
            );
            ExitCode::FAILURE
        }
    }
}

/// Writes CLI output to stdout. A reader that has gone away
/// (`rbp … | head -1`) ends the process quietly with success, like any
/// Unix filter; another write failure exits with an error.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    let Err(e) = std::io::stdout().lock().write_fmt(args) else {
        return;
    };
    rbp::trace::uninstall();
    if e.kind() != std::io::ErrorKind::BrokenPipe {
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Installs a JSONL trace sink when `RBP_TRACE` names a destination
/// path (`0`, `off`, or empty disables; the CLI defaults to no trace,
/// unlike the experiment binaries which trace by default).
fn init_trace(args: &[String]) {
    let Ok(path) = std::env::var("RBP_TRACE") else {
        return;
    };
    if path.is_empty() || path == "0" || path.eq_ignore_ascii_case("off") {
        return;
    }
    let Ok(sink) = rbp::trace::JsonlSink::create(std::path::Path::new(&path)) else {
        eprintln!("warning: could not create trace file {path}");
        return;
    };
    let fields: Vec<rbp::trace::Json> = args
        .iter()
        .map(|a| rbp::trace::Json::from(a.as_str()))
        .collect();
    let manifest = rbp::trace::Manifest::new("rbp")
        .field("args", rbp::trace::Json::Arr(fields))
        .field("seed", env_seed(0));
    rbp::trace::install(Box::new(sink), manifest);
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "stats" => {
            let dag = load(args.get(1))?;
            outln!("{}", dag.name());
            outln!("{}", DagStats::compute(&dag));
            Ok(())
        }
        "schedule" => {
            let dag = load(args.get(1))?;
            let (k, r, g) = krg(args)?;
            let want = args
                .get(5)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str);
            let mode = game_mode(args)?;
            if args.iter().any(|a| a == "--stream") {
                if mode.is_hier() {
                    return Err("--stream is two-level only (drop --levels 3)".to_string());
                }
                return schedule_stream(&dag, k, r, g, want, flag_value(args, "--out")?);
            }
            let inst = MppInstance::new(&dag, k, r, g);
            if let Some(hinst) = HierInstance::from_mode(&inst, mode) {
                return schedule_hier(&hinst, want);
            }
            if !inst.is_feasible() {
                return Err(format!("infeasible: need r ≥ {}", dag.max_in_degree() + 1));
            }
            let mut any = false;
            for s in all_schedulers() {
                if let Some(w) = want {
                    if !s.name().contains(w) {
                        continue;
                    }
                }
                any = true;
                let run = s.schedule(&inst).map_err(|e| e.to_string())?;
                let stats = MppRunStats::analyze(&inst, &run.strategy);
                let asy = async_makespan(&inst, &run.strategy).makespan;
                let batched = batchify(&inst, &run.strategy)
                    .validate(&inst)
                    .map_err(|e| e.to_string())?
                    .total(inst.model);
                outln!(
                    "{:<50} total={:<6} io_steps={:<5} surplus={:<6} comm={:<5} spill={:<5} recompute={:<4} async={:<6} batchified={}",
                    s.name(),
                    stats.total,
                    stats.cost.io_steps(),
                    stats.surplus,
                    stats.communication_transfers(),
                    stats.spill_transfers(),
                    stats.recomputations,
                    asy,
                    batched,
                );
            }
            if !any {
                return Err(format!("no scheduler matches '{}'", want.unwrap_or("")));
            }
            Ok(())
        }
        "solve" => {
            let dag = load(args.get(1))?;
            let (k, r, g) = krg(args)?;
            let inst = MppInstance::new(&dag, k, r, g);
            let threads = flag_value(args, "--threads")?.map_or(Ok(1), |v| {
                v.parse::<usize>().map_err(|_| "bad --threads".to_string())
            })?;
            let mut limits =
                flag_value(args, "--max-states")?.map_or(Ok(SolveLimits::default()), |v| {
                    v.parse::<usize>()
                        .map(SolveLimits::states)
                        .map_err(|_| "bad --max-states".to_string())
                })?;
            if let Some(ms) = flag_value(args, "--deadline-ms")? {
                let ms: u64 = ms.parse().map_err(|_| "bad --deadline-ms".to_string())?;
                limits = limits.with_deadline(std::time::Duration::from_millis(ms));
            }
            let config = SearchConfig::default()
                .with_limits(limits)
                .with_threads(threads);
            let mode = game_mode(args)?;
            if let Some(hinst) = HierInstance::from_mode(&inst, mode) {
                let out = rbp::hier::solve_hier_with(&hinst, &config);
                let sol = out
                    .solution
                    .ok_or_else(|| solve_failure(&out.reason, &config))?;
                outln!(
                    "OPT = {} ({}; mode={}; {} moves; {} settled, {} thread{})",
                    sol.total,
                    sol.cost,
                    mode.token(),
                    sol.strategy.len(),
                    out.stats.settled,
                    out.stats.threads,
                    if out.stats.threads == 1 { "" } else { "s" }
                );
                for mv in &sol.strategy.moves {
                    outln!("  {mv}");
                }
                return Ok(());
            }
            let out = rbp::core::solve_mpp_with(&inst, &config);
            let sol = out
                .solution
                .ok_or_else(|| solve_failure(&out.reason, &config))?;
            outln!(
                "OPT = {} ({}; {} moves; {} settled, {} thread{})",
                sol.total,
                sol.cost,
                sol.strategy.len(),
                out.stats.settled,
                out.stats.threads,
                if out.stats.threads == 1 { "" } else { "s" }
            );
            for mv in &sol.strategy.moves {
                outln!("  {mv}");
            }
            Ok(())
        }
        "improve" => {
            let dag = load(args.get(1))?;
            let (k, r, g) = krg(args)?;
            let inst = MppInstance::new(&dag, k, r, g);
            if !inst.is_feasible() {
                return Err(format!("infeasible: need r ≥ {}", dag.max_in_degree() + 1));
            }
            let budget = flag_value(args, "--budget-ms")?.map_or(Ok(1000), |v| {
                v.parse::<u64>().map_err(|_| "bad --budget-ms".to_string())
            })?;
            let driver = match flag_value(args, "--driver")?.unwrap_or("auto") {
                "auto" => Driver::Auto,
                "hill" => Driver::HillClimb,
                "anneal" => Driver::Anneal,
                "lns" => Driver::Lns,
                other => return Err(format!("unknown driver '{other}' (auto|hill|anneal|lns)")),
            };

            // Initial strategy: a saved file, or the best scheduler result.
            let (initial, origin) = match flag_value(args, "--in")? {
                Some(path) => {
                    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    let saved =
                        persist::strategy_from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
                    let h = &saved.header;
                    if (h.n, h.k, h.r, h.g) != (dag.n(), k, r, g) {
                        return Err(format!(
                            "{path}: saved for n={} k={} r={} g={}, want n={} k={} r={} g={}",
                            h.n,
                            h.k,
                            h.r,
                            h.g,
                            dag.n(),
                            k,
                            r,
                            g
                        ));
                    }
                    (saved.strategy, format!("saved:{path}"))
                }
                None => {
                    let mut best: Option<(u64, MppRun, String)> = None;
                    for s in all_schedulers() {
                        let run = s.schedule(&inst).map_err(|e| e.to_string())?;
                        let merged = batchify(&inst, &run.strategy);
                        let cost = merged.validate(&inst).map_err(|e| e.to_string())?;
                        let total = cost.total(inst.model);
                        if best.as_ref().is_none_or(|(t, _, _)| total < *t) {
                            best = Some((
                                total,
                                MppRun {
                                    strategy: merged,
                                    cost,
                                },
                                s.name(),
                            ));
                        }
                    }
                    let (_, run, name) = best.expect("scheduler registry is never empty");
                    (run.strategy, name)
                }
            };

            let cfg = RefineConfig {
                seed: env_seed(0),
                budget: Budget::millis(budget),
                driver,
            };
            let out = rbp::refine::refine(&inst, &initial, &cfg).map_err(|e| e.to_string())?;
            outln!("initial  total={:<6} ({origin})", out.initial_total);
            outln!(
                "refined  total={:<6} ({}; {} proposals, {} accepted, {} moves replayed)",
                out.total,
                out.provenance,
                out.proposals,
                out.accepted,
                out.replayed_moves
            );
            if let Some(path) = flag_value(args, "--out")? {
                let saved = persist::SavedStrategy {
                    header: StreamHeader {
                        dag_name: dag.name().to_string(),
                        n: dag.n(),
                        k,
                        r,
                        g,
                    },
                    strategy: out.run.strategy.clone(),
                };
                std::fs::write(path, persist::strategy_to_jsonl(&saved))
                    .map_err(|e| format!("{path}: {e}"))?;
                outln!("saved    {path}");
            }
            Ok(())
        }
        "portfolio" => {
            let dag = load(args.get(1))?;
            let (k, r, g) = krg(args)?;
            let inst = MppInstance::new(&dag, k, r, g);
            if !inst.is_feasible() {
                return Err(format!("infeasible: need r ≥ {}", dag.max_in_degree() + 1));
            }
            let budget = flag_value(args, "--budget-ms")?.map_or(Ok(1000), |v| {
                v.parse::<u64>().map_err(|_| "bad --budget-ms".to_string())
            })?;
            let exact_threads = flag_value(args, "--exact-threads")?.map_or(Ok(1), |v| {
                v.parse::<usize>()
                    .map_err(|_| "bad --exact-threads".to_string())
            })?;
            let cfg = PortfolioConfig {
                budget_millis: budget,
                seed: env_seed(0),
                use_exact: !args.iter().any(|a| a == "--no-exact"),
                exact_threads: exact_threads.max(1),
                mode: game_mode(args)?,
                ..PortfolioConfig::default()
            };
            let out = rbp::refine::race(&inst, &cfg).map_err(|e| e.to_string())?;
            for e in &out.entries {
                match e.total {
                    Some(t) => outln!("{:<24} total={:<6} {:>6} ms", e.name, t, e.millis),
                    None => outln!("{:<24} total=-      {:>6} ms", e.name, e.millis),
                }
            }
            let baseline = out
                .entries
                .first()
                .and_then(|e| e.total)
                .expect("baseline scheduler always reports a cost");
            // Machine-parseable summary line (consumed by scripts/ci.sh).
            outln!(
                "PORTFOLIO winner={} total={} baseline={} optimal={}",
                out.provenance,
                out.total,
                baseline,
                out.proven_optimal
            );
            Ok(())
        }
        "bounds" => {
            let dag = load(args.get(1))?;
            let (k, r, g) = krg(args)?;
            let inst = MppInstance::new(&dag, k, r, g);
            let mode = game_mode(args)?;
            if let Some(hinst) = HierInstance::from_mode(&inst, mode) {
                use rbp::bounds::hier;
                outln!("mode: {}", mode.token());
                outln!("feasible (r ≥ Δin+1): {}", hier::feasible(&dag, r));
                outln!("hier lower:      {}", hier::lower(&hinst));
                outln!("hier upper:      {}", hier::upper(&hinst));
                match hier::green_upper(&hinst) {
                    Some(b) => outln!("green upper:     {b}"),
                    None => outln!("green upper:     - (green-cap < n)"),
                }
                outln!("best upper:      {}", hier::best_upper(&hinst));
                return Ok(());
            }
            outln!("feasible (r ≥ Δin+1): {}", inst.is_feasible());
            outln!("Lemma 1 lower:  {}", trivial::lower(&inst));
            outln!("Lemma 1 upper:  {}", trivial::upper(&inst));
            outln!("greedy factor:  {}", trivial::greedy_factor(&inst));
            Ok(())
        }
        "dot" => {
            let dag = load(args.get(1))?;
            out!("{}", dot::to_dot(&dag, &dot::DotOptions::default()));
            Ok(())
        }
        "report" => {
            let path = args.get(1).ok_or("report: missing trace file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let rendered = rbp::trace::report::render(&text)?;
            out!("{rendered}");
            Ok(())
        }
        "gen" => {
            let family = args.get(1).ok_or("gen: missing family")?;
            let nums: Vec<usize> = args[2..]
                .iter()
                .map(|s| s.parse().map_err(|_| format!("bad number '{s}'")))
                .collect::<Result<_, _>>()?;
            let dag = rbp::serve::build_dag(family, &nums)?;
            out!("{}", io::to_text(&dag));
            Ok(())
        }
        "serve" => {
            let parse_flag = |flag: &str, default: usize| -> Result<usize, String> {
                flag_value(args, flag)?.map_or(Ok(default), |v| {
                    v.parse::<usize>().map_err(|_| format!("bad {flag}"))
                })
            };
            let defaults = rbp::serve::ServeConfig::default();
            let cfg = rbp::serve::ServeConfig {
                addr: flag_value(args, "--addr")?
                    .unwrap_or("127.0.0.1:8017")
                    .to_string(),
                workers: parse_flag("--workers", defaults.workers)?,
                queue_cap: parse_flag("--queue-cap", defaults.queue_cap)?,
                cache_cap: parse_flag("--cache-cap", defaults.cache_cap)?,
                default_deadline_ms: parse_flag(
                    "--deadline-ms",
                    defaults.default_deadline_ms as usize,
                )? as u64,
                max_body_bytes: defaults.max_body_bytes,
                max_solve_threads: parse_flag("--max-solve-threads", defaults.max_solve_threads)?,
                store_dir: flag_value(args, "--store-dir")?.map(str::to_string),
                store_cap_bytes: parse_flag("--store-cap-bytes", defaults.store_cap_bytes as usize)?
                    as u64,
            };
            let store_note = cfg
                .store_dir
                .as_ref()
                .map(|d| format!(" (store: {d})"))
                .unwrap_or_default();
            let server = rbp::serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
            outln!("rbp-serve listening on {}{store_note}", server.addr());
            server.wait();
            outln!("rbp-serve drained, exiting");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// `rbp schedule … --stream`: run the streaming scheduler tier. Every
/// move passes through the rule-enforcing [`rbp::stream::StreamSim`];
/// without `--out` strategies are discarded as they are verified
/// (`O(active-set)` resident state), with `--out <file>` the selected
/// scheduler's strategy streams to JSONL re-loadable by
/// `rbp improve --in`.
fn schedule_stream(
    dag: &Dag,
    k: usize,
    r: usize,
    g: u64,
    want: Option<&str>,
    out: Option<&str>,
) -> Result<(), String> {
    use rbp::stream::{all_stream_schedulers, JsonlSink, NullSink};
    let model = rbp::core::CostModel::mpp(g);
    let selected: Vec<_> = all_stream_schedulers()
        .into_iter()
        .filter(|s| want.is_none_or(|w| s.name().contains(w)))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "no streaming scheduler matches '{}'",
            want.unwrap_or("")
        ));
    }
    if out.is_some() && selected.len() > 1 {
        return Err(format!(
            "--out needs exactly one scheduler; name one of: {}",
            selected
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    for s in selected {
        let run = if let Some(path) = out {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let header = StreamHeader {
                dag_name: dag.name().to_string(),
                n: dag.n(),
                k,
                r,
                g,
            };
            let mut sink = JsonlSink::new(file, &header).map_err(|e| format!("{path}: {e}"))?;
            let run = s
                .schedule(dag, k, r, &mut sink)
                .map_err(|e| format!("{}: {e}", s.name()))?;
            sink.into_inner()
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("{path}: {e}"))?;
            outln!("saved {path} ({} bytes)", run.bytes_emitted);
            run
        } else {
            let mut sink = NullSink::new();
            s.schedule(dag, k, r, &mut sink)
                .map_err(|e| format!("{}: {e}", s.name()))?
        };
        rbp::stream::trace_stream_run(&s.name(), &run);
        outln!(
            "{:<24} total={:<8} io_steps={:<7} moves={:<8} passes={:<2} peak_active={:<6} nodes/s={:.0}",
            s.name(),
            run.cost.total(model),
            run.cost.io_steps(),
            run.moves,
            run.passes,
            run.peak_active_set,
            run.nodes_per_sec(),
        );
    }
    Ok(())
}

/// `rbp schedule … --levels 3`: run the three-level schedulers and
/// print a cost breakdown with blue and green traffic attributed
/// separately.
fn schedule_hier(inst: &HierInstance, want: Option<&str>) -> Result<(), String> {
    if !inst.is_feasible() {
        return Err(format!(
            "infeasible: need r ≥ {}",
            inst.dag.max_in_degree() + 1
        ));
    }
    let mut any = false;
    for s in all_hier_schedulers() {
        if let Some(w) = want {
            if !s.name().contains(w) {
                continue;
            }
        }
        any = true;
        let run = s.schedule(inst).map_err(|e| e.to_string())?;
        outln!(
            "{:<50} total={:<6} io_steps={:<5} green_io={:<5} green_stores={:<5} green_loads={:<5} computes={}",
            s.name(),
            run.cost.total(inst.model),
            run.cost.io_steps(),
            run.cost.green_io_steps(),
            run.cost.green_stores,
            run.cost.green_loads,
            run.cost.computes,
        );
    }
    if !any {
        return Err(format!("no scheduler matches '{}'", want.unwrap_or("")));
    }
    Ok(())
}

/// Parses the shared game-mode flags (`--levels`, `--green-cap`,
/// `--green-cost`) through the workspace-wide [`GameMode`] parser.
fn game_mode(args: &[String]) -> Result<GameMode, String> {
    let num = |flag: &str| -> Result<Option<u64>, String> {
        flag_value(args, flag)?
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad {flag}")))
            .transpose()
    };
    GameMode::from_flags(num("--levels")?, num("--green-cap")?, num("--green-cost")?)
}

/// Renders a failed exact solve into the CLI error message.
fn solve_failure(reason: &StopReason, config: &SearchConfig) -> String {
    match reason {
        StopReason::StateLimit => format!(
            "exact solve hit its state budget of {} settled states \
             (raise --max-states)",
            config.limits.max_states
        ),
        StopReason::Deadline => "exact solve hit its --deadline-ms wall-clock budget".to_string(),
        StopReason::Unsupported => "exact solve failed (instance too large or infeasible, \
             or its costs overflow the search's u64 sums within the state budget)"
            .to_string(),
        other => format!("exact solve failed ({})", other.as_str()),
    }
}

/// Looks up `--flag value` in the argument list; errors when the flag is
/// present but its value is missing.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{flag}: missing value")),
        None => Ok(None),
    }
}

fn load(path: Option<&String>) -> Result<Dag, String> {
    let path = path.ok_or("missing DAG file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    io::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn krg(args: &[String]) -> Result<(usize, usize, u64), String> {
    let p = |i: usize, name: &str| -> Result<u64, String> {
        args.get(i)
            .ok_or(format!("missing {name}"))?
            .parse()
            .map_err(|_| format!("bad {name}"))
    };
    Ok((p(2, "k")? as usize, p(3, "r")? as usize, p(4, "g")?))
}
