//! The campaign CLI as a *library*: argument parsing, sweeping, sharding
//! and merging behind one [`run`] entry point that resolves every grid
//! dimension against **caller-supplied registries**.
//!
//! The stock `campaign` binary is a two-line wrapper over
//! `run(argv, &CliRegistries::default())`.  A project with its own
//! algorithms, environments or topologies gets the identical CLI — flags,
//! parameterised labels, sharding, byte-deterministic merging — with its
//! families registered, by building its own binary:
//!
//! ```no_run
//! use selfsim_campaign::cli::{self, CliRegistries};
//!
//! fn main() -> std::process::ExitCode {
//!     let mut registries = CliRegistries::default();
//!     // registries.environments.register(EnvRef::new(MyEnv { .. }));
//!     let argv: Vec<String> = std::env::args().skip(1).collect();
//!     cli::run(&argv, &registries)
//! }
//! ```
//!
//! (`examples/custom_campaign_cli.rs` is the runnable version.)  This is
//! what makes a *user-registered* environment sweepable by label from a
//! CLI — `--envs "my-env(k=0.5)"` — without editing any enum.
//!
//! All three grid dimensions resolve by label: algorithms against
//! [`Registry`], environments against [`EnvRegistry`], topologies against
//! [`TopologyRegistry`].  Environment and topology labels parameterise —
//! `--envs "churn(e=0.3,a=0.8)" --topologies "random(p=0.15)"` — and
//! round-trip: the `environment`/`topology` columns of any emitted record
//! feed back to these flags to re-run exactly that cell.
//!
//! `--trials` is the *total* trial budget: it is divided over the expanded
//! scenario grid with the remainder spread one-per-cell over the leading
//! cells, so the flag scales the whole sweep and the printed total is
//! exact.  Records stream to `--out` as trials finish (memory stays
//! `O(threads)`); per-scenario summaries aggregate incrementally.

// detlint::allow-file(stray-print, reason = "this module IS the CLI surface: usage, progress, summaries and errors on stdio are its contract; record bytes still flow only through the sink")
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use crate::{
    distribute_trials, emit, merge_shards, merge_trace_shards, Aggregator, AlgorithmRef, Campaign,
    CampaignResult, EnvRef, EnvRegistry, ExecutionMode, MergeOrder, ProgressThrottle, Registry,
    ScenarioGrid, ShardSpec, TopoRef, TopologyRegistry, TrialRecord,
};
use selfsim_trace::MetricsRegistry;

/// The three registries a campaign CLI resolves labels against — pass your
/// own to [`run`] to make user-registered families sweepable from the
/// command line.  [`CliRegistries::default`] is the builtin set the stock
/// `campaign` binary uses.
#[derive(Clone)]
pub struct CliRegistries {
    /// Algorithm labels (`--algorithms`, `--list-algorithms`).
    pub algorithms: Registry,
    /// Environment labels (`--envs`, `--list-environments`).
    pub environments: EnvRegistry,
    /// Topology labels (`--topologies`, `--list-topologies`).
    pub topologies: TopologyRegistry,
}

impl Default for CliRegistries {
    fn default() -> Self {
        CliRegistries {
            algorithms: Registry::builtin(),
            environments: EnvRegistry::builtin(),
            topologies: TopologyRegistry::builtin(),
        }
    }
}

#[derive(Debug)]
struct Args {
    algorithms: Vec<AlgorithmRef>,
    topologies: Vec<TopoRef>,
    envs: Vec<EnvRef>,
    modes: Vec<ExecutionMode>,
    sizes: Vec<usize>,
    trials: u64,
    max_rounds: usize,
    seed: u64,
    threads: usize,
    shard: ShardSpec,
    merge: Vec<String>,
    merge_traces: Vec<String>,
    out: Option<String>,
    summary_out: Option<String>,
    trace: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
    list_algorithms: bool,
    list_environments: bool,
    list_topologies: bool,
}

// The default grid: builtin labels resolved against the caller's
// registries.  A caller-built registry may omit some (or all) of these
// families, so resolution is best-effort — missing defaults simply leave
// that dimension to the explicit flags, and a flagless sweep over an
// empty dimension fails later with the ordinary "scenario grid is empty"
// error instead of a panic inside `--help`.
fn default_args(registries: &CliRegistries) -> Args {
    let resolve_envs = |labels: &[&str]| -> Vec<EnvRef> {
        labels
            .iter()
            .filter_map(|label| registries.environments.resolve(label).ok())
            .collect()
    };
    let resolve_topologies = |labels: &[&str]| -> Vec<TopoRef> {
        labels
            .iter()
            .filter_map(|label| registries.topologies.resolve(label).ok())
            .collect()
    };
    Args {
        algorithms: ["minimum", "second-smallest", "sum", "sorting"]
            .iter()
            .filter_map(|label| registries.algorithms.resolve(label).ok())
            .collect(),
        topologies: resolve_topologies(&["ring", "complete", "random"]),
        envs: resolve_envs(&[
            "static",
            "churn",
            "markov",
            "partition",
            "crash",
            "adversary",
        ]),
        modes: vec![ExecutionMode::sync()],
        sizes: vec![12],
        trials: 100,
        max_rounds: 200_000,
        seed: 0,
        threads: 0,
        shard: ShardSpec::full(),
        merge: Vec::new(),
        merge_traces: Vec::new(),
        out: None,
        summary_out: None,
        trace: None,
        metrics_out: None,
        quiet: false,
        list_algorithms: false,
        list_environments: false,
        list_topologies: false,
    }
}

const USAGE: &str = "\
campaign — run a parallel experiment sweep over self-similar algorithms and baselines

OPTIONS
    --algorithms a,b,..   registry labels (see --list-algorithms)
    --topologies t,..     registry labels (see --list-topologies); bare family
                          names take their defaults and labels parameterise:
                          ring|line|grid|complete|star|random|random(p=0.15)
    --envs e,..           registry labels (see --list-environments); bare or
                          parameterised: static|churn|churn(e=0.3,a=0.8)|
                          markov|partition(b=3,t=8)|crash|adversary|churn+crash
    --modes m,..          execution modes to sweep (default sync); bare or
                          parameterised, round-tripping the mode column:
                          sync|sync(cd=N)|event|event(cd=N)|
                          async|async(i=P,l=N,d=P,dv=RULE); async takes the
                          interaction probability i (default 0.5), latency
                          1..=l ticks (default 3), loss probability d (default
                          0) and delivery rule dv: valid-at-delivery (default)|
                          valid-at-send|any-overlap|any-overlap(g=N)
    --sizes n,..          agents per system (default 12)
    --trials N            total trial budget, split exactly over scenarios (default 100)
    --max-rounds N        per-trial round/tick budget (default 200000)
    --seed S              campaign master seed (default 0)
    --threads T           worker threads, 0 = all CPUs (default 0)
    --shard i/k           run only stride shard i of k (default 0/1 = everything);
                          merging all k shard outputs reproduces the unsharded bytes
    --merge f0 f1 ..      merge shard JSONL files (in --shard index order) instead of
                          running; writes the exact unsharded record stream to --out
                          and re-aggregates the summary table
    --merge-traces f0 ..  with --merge: merge shard trace files (in the same
                          --shard index order) into --trace PATH, reconstructing
                          the exact unsharded event stream trial block by block
    --out PATH            stream per-trial records as JSON-lines (as trials finish);
                          `-` streams to stdout and moves the summary to stderr
    --summary-out PATH    write per-scenario summaries as JSON-lines
    --trace PATH          opt-in: stream per-trial structured event traces to PATH
                          (JSON-lines, one trial-start..trial-end block per trial);
                          bytes are identical across thread counts and shard merges,
                          and each block replays from its record's label + seed
    --metrics-out PATH    write an end-of-run metrics snapshot (pipeline stage
                          timers, reorder-window depth, sim counters) as JSON
    --list-algorithms     print the algorithm registry and exit
    --list-environments   print the environment registry and exit
    --list-topologies     print the topology registry and exit
    --quiet               suppress progress output
    --help                this text

Environment and topology labels round-trip: the `environment` and
`topology` columns of any emitted JSONL record or markdown row can be fed
back to --envs/--topologies to re-run exactly that cell.
";

fn parse_args(argv: &[String], registries: &CliRegistries) -> Result<Args, String> {
    let mut args = default_args(registries);
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--algorithms" => {
                args.algorithms = parse_list(&value("--algorithms")?, |s| {
                    registries.algorithms.resolve(s)
                })?;
            }
            "--topologies" => {
                args.topologies = parse_list(&value("--topologies")?, |s| {
                    registries.topologies.resolve(s)
                })?;
            }
            "--envs" => {
                args.envs = parse_list(&value("--envs")?, |s| registries.environments.resolve(s))?;
            }
            "--modes" => {
                args.modes = parse_list(&value("--modes")?, ExecutionMode::parse_label)?;
            }
            "--sizes" => {
                args.sizes = parse_list(&value("--sizes")?, |s| {
                    s.parse::<usize>()
                        .map_err(|e| format!("bad size `{s}`: {e}"))
                })?;
            }
            "--trials" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("bad --trials: {e}"))?;
            }
            "--max-rounds" => {
                args.max_rounds = value("--max-rounds")?
                    .parse()
                    .map_err(|e| format!("bad --max-rounds: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--shard" => args.shard = ShardSpec::parse(&value("--shard")?)?,
            "--merge" => {
                while let Some(path) = it.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    args.merge.push(it.next().expect("peeked").clone());
                }
                if args.merge.is_empty() {
                    return Err("--merge expects one or more shard JSONL files".into());
                }
            }
            "--merge-traces" => {
                while let Some(path) = it.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    args.merge_traces.push(it.next().expect("peeked").clone());
                }
                if args.merge_traces.is_empty() {
                    return Err("--merge-traces expects one or more shard trace files".into());
                }
            }
            "--out" => args.out = Some(value("--out")?),
            "--summary-out" => args.summary_out = Some(value("--summary-out")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--list-algorithms" => args.list_algorithms = true,
            "--list-environments" => args.list_environments = true,
            "--list-topologies" => args.list_topologies = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.trials == 0 {
        return Err("--trials must be positive".into());
    }
    if let Some(n) = args.sizes.iter().find(|&&n| n < 2) {
        return Err(format!("--sizes values must be at least 2, got {n}"));
    }
    if !args.merge.is_empty() && !args.shard.is_full() {
        return Err(
            "--merge and --shard are mutually exclusive (merge reads finished shard files)".into(),
        );
    }
    if args.summary_out.as_deref().is_some_and(is_stdout) {
        return Err(
            "--summary-out must be a file path; stdout is reserved for records (--out -) \
             and the summary table"
                .into(),
        );
    }
    if args.trace.as_deref().is_some_and(is_stdout) {
        return Err("--trace must be a file path; stdout is reserved for records (--out -)".into());
    }
    if args.metrics_out.as_deref().is_some_and(is_stdout) {
        return Err("--metrics-out must be a file path".into());
    }
    if !args.merge_traces.is_empty() {
        if args.merge.is_empty() {
            return Err(
                "--merge-traces requires --merge (it merges finished shard trace files)".into(),
            );
        }
        if args.trace.is_none() {
            return Err("--merge-traces writes the merged event stream to --trace PATH".into());
        }
        if args.merge_traces.len() != args.merge.len() {
            return Err(format!(
                "--merge-traces expects one trace file per --merge shard file ({} vs {})",
                args.merge_traces.len(),
                args.merge.len(),
            ));
        }
    }
    if !args.merge.is_empty() {
        if args.merge_traces.is_empty() && args.trace.is_some() {
            return Err("--trace in merge mode needs --merge-traces shard files to merge".into());
        }
        if args.metrics_out.is_some() {
            return Err("--metrics-out only applies to a sweep run, not --merge".into());
        }
    }
    Ok(args)
}

/// Splits a CSV flag value into items and parses each.  The split is
/// parenthesis-aware ([`crate::split_top_level`]) so
/// parameterised labels like `churn(e=0.3,a=0.8)` stay whole.
fn parse_list<T>(csv: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    crate::split_top_level(csv)
        .into_iter()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

fn print_registry(registry: &Registry) {
    print_label_registry(
        "algorithms",
        "",
        registry
            .iter()
            .map(|algorithm| {
                let topology = match algorithm.forced_topology() {
                    Some(family) => format!(" [topology: {}]", family.label()),
                    None => String::new(),
                };
                (
                    algorithm.label().to_string(),
                    format!("expected: {}", algorithm.expectation().label()),
                    format!("{}{}", algorithm.description(), topology),
                )
            })
            .collect(),
    );
}

/// The parameterised-label footer shared by the environment and topology
/// listings (algorithm labels are plain registry keys, so their listing
/// omits it).
const LABEL_FOOTER: &str =
    "\nlabels parameterise as family(k=v,..) and round-trip through records.";

/// Pads every column to its longest row so the listings stay aligned
/// however long the registered labels grow.
fn print_label_registry(heading: &str, footer: &str, rows: Vec<(String, String, String)>) {
    let width = |pick: fn(&(String, String, String)) -> &String| {
        rows.iter().map(|row| pick(row).len()).max().unwrap_or(0)
    };
    let (w0, w1) = (width(|r| &r.0), width(|r| &r.1));
    println!("registered {heading} ({}):", rows.len());
    for (family, defaults, extra) in &rows {
        println!("  {family:<w0$} {defaults:<w1$} {extra}");
    }
    if !footer.is_empty() {
        println!("{footer}");
    }
}

fn print_env_registry(registry: &EnvRegistry) {
    print_label_registry(
        "environments",
        LABEL_FOOTER,
        registry
            .iter()
            .map(|env| {
                (
                    env.family().to_string(),
                    format!("defaults: {}", env.label()),
                    format!(
                        "fragments: {}  {}",
                        if env.can_fragment() { "yes" } else { "no " },
                        env.description()
                    ),
                )
            })
            .collect(),
    );
}

fn print_topology_registry(registry: &TopologyRegistry) {
    print_label_registry(
        "topologies",
        LABEL_FOOTER,
        registry
            .iter()
            .map(|topology| {
                (
                    topology.family().to_string(),
                    format!("defaults: {}", topology.label()),
                    topology.description().to_string(),
                )
            })
            .collect(),
    );
}

/// Runs the campaign CLI against `registries`: parses `argv` (the
/// command-line arguments, program name excluded), then sweeps, shards,
/// merges or lists exactly as the stock `campaign` binary does.  Every
/// label — `--algorithms`, `--envs`, `--topologies`, and the defaults —
/// resolves against the given registries, so families registered by the
/// caller are first-class sweepable dimensions.
pub fn run(argv: &[String], registries: &CliRegistries) -> ExitCode {
    let args = match parse_args(argv, registries) {
        Ok(args) => args,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_algorithms || args.list_environments || args.list_topologies {
        if args.list_algorithms {
            print_registry(&registries.algorithms);
        }
        if args.list_environments {
            print_env_registry(&registries.environments);
        }
        if args.list_topologies {
            print_topology_registry(&registries.topologies);
        }
        return ExitCode::SUCCESS;
    }
    let outcome = if args.merge.is_empty() {
        run_sweep(&args)
    } else {
        run_merge(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs (one shard of) the sweep, streaming records to `--out`.
fn run_sweep(args: &Args) -> Result<(), String> {
    let scenarios = ScenarioGrid::new()
        .algorithms(args.algorithms.iter().cloned())
        .topologies(args.topologies.iter().cloned())
        .envs(args.envs.iter().cloned())
        .modes(args.modes.iter().copied())
        .sizes(args.sizes.iter().copied())
        .max_rounds(args.max_rounds)
        .trials(1) // replaced below by the exact budget split
        .expand();
    if scenarios.is_empty() {
        return Err("the scenario grid is empty".into());
    }

    // Split the budget exactly: every cell gets `base`, and the first
    // `extra` cells one more, so the total is `--trials`, not the old
    // `div_ceil` overshoot (e.g. 100 over 48 cells used to run 144).
    let mut scenarios = scenarios;
    let (base, extra) = distribute_trials(&mut scenarios, args.trials);
    if base == 0 {
        eprintln!(
            "warning: --trials {} is below the grid's {} cells; {} cells run zero trials \
             and will be absent from records and summaries",
            args.trials,
            scenarios.len(),
            scenarios.len() as u64 - extra,
        );
    }

    // `--metrics-out` attaches a registry; the run updates it and the
    // snapshot is written after the sweep.  Without the flag no registry
    // exists and the runner takes no clock readings at all.
    let registry = args
        .metrics_out
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let mut campaign = Campaign::new(scenarios)
        .seed(args.seed)
        .threads(args.threads)
        .shard(args.shard);
    if let Some(registry) = &registry {
        campaign = campaign.observe(Arc::clone(registry));
    }
    let total = campaign.trial_count();
    let shard_total = campaign.shard_trial_count();
    debug_assert_eq!(total, args.trials, "exact budget split");
    if !args.quiet {
        let shard_note = if args.shard.is_full() {
            String::new()
        } else {
            format!(
                ", shard {} -> {} of them here",
                args.shard.label(),
                shard_total
            )
        };
        eprintln!(
            "campaign: {} scenarios, {} trials total ({}-{} per cell, seed {}, {} threads{})",
            campaign.scenarios().len(),
            total,
            base,
            if extra > 0 { base + 1 } else { base },
            args.seed,
            if args.threads == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                args.threads
            },
            shard_note,
        );
    }

    // ~10 progress updates/sec however many worker threads finish trials;
    // the final 100% line always passes the throttle.
    let throttle = ProgressThrottle::every(Duration::from_millis(100));
    let quiet = args.quiet;
    let progress = move |done: u64, total: u64| {
        if !quiet && throttle.report(done, total) {
            eprintln!("  {done}/{total} trials");
        }
    };

    // detlint::allow(wall-clock, reason = "elapsed-time line on stderr after the run; never serialized into records")
    #[allow(clippy::disallowed_methods)] // sanctioned: see pragma above
    let started = std::time::Instant::now();
    // (`Stdout`, not `StdoutLock` — the sink crosses into the runner's
    // worker scope and must be `Send`.  With `--out -` the records own
    // stdout and everything human-readable goes to stderr below.)
    let sink: Option<(Box<dyn Write + Send>, &str)> = match &args.out {
        Some(path) if is_stdout(path) => Some((
            Box::new(std::io::BufWriter::new(std::io::stdout())),
            "stdout",
        )),
        Some(path) => Some((
            Box::new(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
            path.as_str(),
        )),
        None => None,
    };
    let trace: Option<(Box<dyn Write + Send>, &str)> = match &args.trace {
        Some(path) => Some((
            Box::new(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
            path.as_str(),
        )),
        None => None,
    };
    let result: CampaignResult = match (sink, trace) {
        (Some((mut writer, label)), Some((mut trace, trace_label))) => campaign
            .stream_with_trace(&mut writer, &mut trace, progress)
            .and_then(|result| {
                writer.flush()?;
                trace.flush()?;
                Ok(result)
            })
            .map_err(|e| {
                format!("cannot stream records to {label} / traces to {trace_label}: {e}")
            })?,
        (None, Some((mut trace, trace_label))) => {
            // `--trace` without `--out`: the event stream is the product;
            // records are aggregated and dropped.
            let mut devnull = std::io::sink();
            campaign
                .stream_with_trace(&mut devnull, &mut trace, progress)
                .and_then(|result| {
                    trace.flush()?;
                    Ok(result)
                })
                .map_err(|e| format!("cannot stream traces to {trace_label}: {e}"))?
        }
        (Some((mut writer, label)), None) => campaign
            .stream_with_progress(&mut writer, progress)
            .and_then(|result| {
                writer.flush()?;
                Ok(result)
            })
            .map_err(|e| format!("cannot stream records to {label}: {e}"))?,
        (None, None) => campaign.run_with_progress(progress),
    };
    let elapsed = started.elapsed();

    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        write_file(path, |w| w.write_all(registry.snapshot_json().as_bytes()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if let Some(path) = &args.summary_out {
        write_file(path, |w| emit::write_summary_jsonl(w, &result.summaries))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let report = format!(
        "{}{}\n{:.2}s wall clock, {:.0} trials/s",
        emit::markdown_summary(&result.summaries),
        totals_line(&result, args),
        elapsed.as_secs_f64(),
        result.trials as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
    );
    if args.out.as_deref().is_some_and(is_stdout) {
        if !args.quiet {
            eprintln!("{report}");
        }
    } else {
        println!("{report}");
    }
    Ok(())
}

/// `true` when `path` means "stream to stdout" (`-` or `/dev/stdout`).
fn is_stdout(path: &str) -> bool {
    path == "-" || path == "/dev/stdout"
}

/// Merges finished shard record files back into the unsharded byte stream
/// and re-aggregates the summary table from the merged records.
fn run_merge(args: &Args) -> Result<(), String> {
    let mut shards: Vec<BufReader<std::fs::File>> = Vec::with_capacity(args.merge.len());
    for path in &args.merge {
        let file =
            std::fs::File::open(path).map_err(|e| format!("cannot open shard file {path}: {e}"))?;
        shards.push(BufReader::new(file));
    }

    let stdout = std::io::stdout();
    let mut writer: Box<dyn Write> = match &args.out {
        Some(path) if !is_stdout(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        )),
        _ => Box::new(std::io::BufWriter::new(stdout.lock())),
    };

    // Every merged line is parsed once: the order checker proves the
    // reconstructed stream is in exact unsharded job order (this is what
    // catches equal-length shard files passed out of `--shard` order,
    // which no line-count check can see), and the same record feeds the
    // re-aggregated summary table.
    let mut order = MergeOrder::new();
    let mut aggregator = Aggregator::new();
    let merged = merge_shards(&mut shards, |line| {
        writer
            .write_all(line)
            .map_err(|e| format!("cannot write merged records: {e}"))?;
        let record =
            TrialRecord::from_jsonl_line(std::str::from_utf8(line).map_err(|e| e.to_string())?)?;
        order.check(&record)?;
        aggregator.observe(&record);
        Ok(())
    })
    .and_then(|merged| {
        writer
            .flush()
            .map_err(|e| format!("cannot flush merged records: {e}"))?;
        Ok(merged)
    });
    drop(writer);
    let merged = match merged {
        Ok(merged) => merged,
        Err(e) => {
            // Don't leave a partial (possibly misordered) merged file
            // behind: existence must imply a complete, validated stream.
            if let Some(path) = args.out.as_deref().filter(|p| !is_stdout(p)) {
                let _ = std::fs::remove_file(path);
            }
            return Err(e);
        }
    };

    // Merge the trace shards (if given) block by block: each trial's
    // `trial-start`..`trial-end` event block moves whole, in round-robin
    // shard order, reconstructing the exact unsharded event stream.
    let trace_blocks = if args.merge_traces.is_empty() {
        None
    } else {
        let path = args.trace.as_deref().expect("validated by parse_args");
        let mut trace_shards: Vec<BufReader<std::fs::File>> =
            Vec::with_capacity(args.merge_traces.len());
        for shard_path in &args.merge_traces {
            let file = std::fs::File::open(shard_path)
                .map_err(|e| format!("cannot open shard trace file {shard_path}: {e}"))?;
            trace_shards.push(BufReader::new(file));
        }
        let mut writer = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        let blocks = merge_trace_shards(&mut trace_shards, |line| {
            writer
                .write_all(line)
                .map_err(|e| format!("cannot write merged traces: {e}"))
        })
        .and_then(|blocks| {
            writer
                .flush()
                .map_err(|e| format!("cannot flush merged traces: {e}"))?;
            Ok(blocks)
        });
        match blocks {
            Ok(blocks) => Some(blocks),
            Err(e) => {
                // Same contract as the record merge: a merged trace file
                // only exists if it is complete and validated.
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
    };

    let summaries = aggregator.summaries();
    if let Some(path) = &args.summary_out {
        write_file(path, |w| emit::write_summary_jsonl(w, &summaries))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let trace_note = match trace_blocks {
        Some(blocks) => format!(", plus {blocks} trace blocks"),
        None => String::new(),
    };
    if args.out.as_deref().is_some_and(|p| !is_stdout(p)) {
        // With --out FILE the table goes to stdout; otherwise stdout
        // carries the merged records and the table would corrupt the
        // stream.
        print!("{}", emit::markdown_summary(&summaries));
        println!(
            "merged {merged} records from {} shard files across {} scenario cells{trace_note}",
            args.merge.len(),
            summaries.len(),
        );
    } else if !args.quiet {
        eprintln!(
            "merged {merged} records from {} shard files across {} scenario cells{trace_note}",
            args.merge.len(),
            summaries.len(),
        );
    }
    Ok(())
}

fn totals_line(result: &CampaignResult, args: &Args) -> String {
    let trials = result.trials;
    let converged: u64 = result.summaries.iter().map(|s| s.converged).sum();
    let expected: u64 = result.summaries.iter().map(|s| s.expectation_met).sum();
    let shard_note = if args.shard.is_full() {
        String::new()
    } else {
        format!(" [shard {}]", args.shard.label())
    };
    format!(
        "{trials} trials{shard_note}, {converged} converged ({:.1}%), {expected} as expected ({:.1}%)",
        100.0 * converged as f64 / trials.max(1) as f64,
        100.0 * expected as f64 / trials.max(1) as f64,
    )
}

fn write_file(
    path: &str,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write(&mut writer)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_registries_do_not_panic_in_defaults_or_help() {
        // A downstream CLI may supply registries holding only its own
        // families; the hardcoded default labels must degrade to empty
        // dimensions (failing later with "scenario grid is empty"), not
        // panic before --help or explicit flags are even seen.
        let sparse = CliRegistries {
            algorithms: Registry::new(),
            environments: EnvRegistry::new(),
            topologies: TopologyRegistry::new(),
        };
        let args = default_args(&sparse);
        assert!(args.algorithms.is_empty());
        assert!(args.envs.is_empty());
        assert!(args.topologies.is_empty());
        // --help still reaches the usage path (the empty-message Err).
        assert_eq!(
            parse_args(&["--help".to_string()], &sparse).err(),
            Some(String::new()),
        );
        // An explicit unknown label errors against the sparse registry.
        let err = parse_args(&["--envs".to_string(), "churn".to_string()], &sparse).unwrap_err();
        assert!(err.contains("unknown environment `churn`"), "{err}");
    }

    #[test]
    fn async_knobs_are_mode_label_fields() {
        let registries = CliRegistries::default();
        let argv = |flags: &[&str]| flags.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let args = parse_args(
            &argv(&["--modes", "async(i=0.6,l=2,d=0.1,dv=valid-at-send)"]),
            &registries,
        )
        .expect("async label parses");
        assert_eq!(
            args.modes,
            [ExecutionMode::Async(
                crate::AsyncKnobs::new(0.6, 2, 0.1, crate::DeliveryRule::ValidAtSend)
                    .expect("valid knobs")
            )]
        );
        let err = parse_args(&argv(&["--async-rate", "0.5"]), &registries)
            .expect_err("the knobs have no flags of their own");
        assert_eq!(err, "unknown flag `--async-rate`");
    }

    #[test]
    fn builtin_defaults_resolve_completely() {
        let args = default_args(&CliRegistries::default());
        assert_eq!(args.algorithms.len(), 4);
        assert_eq!(args.envs.len(), 6);
        assert_eq!(args.topologies.len(), 3);
    }
}
