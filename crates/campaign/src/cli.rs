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
//! All three grid dimensions resolve by label through one registry type,
//! [`LabelRegistry`](crate::LabelRegistry), and one `name(k=v,…)` grammar:
//! algorithms against [`Registry`], environments against [`EnvRegistry`],
//! topologies against [`TopologyRegistry`].  Environment and topology
//! labels parameterise — `--envs "churn(e=0.3,a=0.8)" --topologies
//! "random(p=0.15)"` — while algorithms take no parameters, so
//! `--algorithms "minimum(k=3)"` names `k` as unknown.  Labels round-trip:
//! the `algorithm`/`environment`/`topology` columns of any emitted record
//! feed back to these flags to re-run exactly that cell.
//!
//! `--trials` is the *total* trial budget: it is divided over the expanded
//! scenario grid with the remainder spread one-per-cell over the leading
//! cells, so the flag scales the whole sweep and the printed total is
//! exact.  Records stream to `--out` as trials finish (memory stays
//! `O(threads)`); per-scenario summaries aggregate incrementally.

#![expect(
    clippy::disallowed_macros,
    reason = "this module is the CLI surface: usage, progress, summaries and errors on stdio \
              are its contract; record bytes still flow only through the sink"
)]

use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use crate::{
    distribute_trials, emit, merge_shards, Aggregator, AlgorithmRef, Campaign, CampaignResult,
    EnvRef, EnvRegistry, ExecutionMode, MergeOrder, ProgressThrottle, Registry, ScenarioGrid,
    ShardSpec, StreamKind, TopoRef, TopologyRegistry, TrialRecord,
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
            "--merge" | "--merge-traces" => {
                let paths = if flag == "--merge" {
                    &mut args.merge
                } else {
                    &mut args.merge_traces
                };
                // Every argument up to the next flag is a shard file.
                paths.extend(std::iter::from_fn(|| {
                    it.next_if(|path| !path.starts_with("--")).cloned()
                }));
                if paths.is_empty() {
                    return Err(format!("{flag} expects one or more shard files"));
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
/// listings (algorithms take no parameters, so their listing omits it).
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

    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed-time line on stderr after the run; never serialized into records"
    )]
    let started = std::time::Instant::now();
    // One runner call writes whichever of `--out` and `--trace` were
    // given; a `--trace`-only run serializes no records.
    let mut records = args.out.as_deref().map(create).transpose()?;
    let mut trace = args.trace.as_deref().map(create).transpose()?;
    let result = campaign
        .stream(records.as_deref_mut(), trace.as_deref_mut(), progress)
        .and_then(|result| {
            for writer in records.iter_mut().chain(&mut trace) {
                writer.flush()?;
            }
            Ok(result)
        })
        .map_err(|e| {
            let outputs = [("records", &args.out), ("traces", &args.trace)]
                .into_iter()
                .filter_map(|(what, path)| Some(format!("{what} to {}", path.as_deref()?)))
                .collect::<Vec<_>>();
            format!("cannot stream {}: {e}", outputs.join(" / "))
        })?;
    let elapsed = started.elapsed();

    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        write_file(path, |w| w.write_all(registry.snapshot_json().as_bytes()))?;
    }

    if let Some(path) = &args.summary_out {
        write_file(path, |w| emit::write_summary_jsonl(w, &result.summaries))?;
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

/// Opens a buffered output: stdout for `-`, else a created file.
/// (`Stdout`, not `StdoutLock`: the writer crosses into the runner's
/// worker scope and must be `Send`.)
fn create(path: &str) -> Result<Box<dyn Write + Send>, String> {
    if is_stdout(path) {
        return Ok(Box::new(std::io::BufWriter::new(std::io::stdout())));
    }
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    Ok(Box::new(std::io::BufWriter::new(file)))
}

/// Merges finished shard record files — and, with `--merge-traces`, their
/// trace files — back into the unsharded byte streams, and re-aggregates
/// the summary table from the merged records.
fn run_merge(args: &Args) -> Result<(), String> {
    // Every merged record is parsed once: the order checker proves the
    // reconstructed stream is in exact unsharded job order (this is what
    // catches equal-length shard files passed out of `--shard` order,
    // which no count check can see), and the same record feeds the
    // re-aggregated summary table.
    let mut order = MergeOrder::new();
    let mut aggregator = Aggregator::new();
    let out = args.out.as_deref().unwrap_or("-");
    let merged = merge_files(StreamKind::Records, &args.merge, out, |line| {
        let record =
            TrialRecord::from_jsonl_line(std::str::from_utf8(line).map_err(|e| e.to_string())?)?;
        order.check(&record.scenario, record.trial)?;
        aggregator.observe(&record);
        Ok(())
    })?;
    // Trace blocks move whole, and each block's `trial-start` event is
    // order-checked like a record.
    let trace_note = match &args.trace {
        Some(path) => {
            let mut order = MergeOrder::new();
            let blocks = merge_files(StreamKind::Traces, &args.merge_traces, path, |block| {
                order.check_trace_block(block)
            })?;
            format!(", plus {blocks} trace blocks")
        }
        None => String::new(),
    };

    let summaries = aggregator.summaries();
    if let Some(path) = &args.summary_out {
        write_file(path, |w| emit::write_summary_jsonl(w, &summaries))?;
    }
    let note = format!(
        "merged {merged} records from {} shard files across {} scenario cells{trace_note}",
        args.merge.len(),
        summaries.len(),
    );
    if !is_stdout(out) {
        // With --out FILE the table goes to stdout; otherwise stdout
        // carries the merged records and the table would corrupt the
        // stream.
        print!("{}", emit::markdown_summary(&summaries));
        println!("{note}");
    } else if !args.quiet {
        eprintln!("{note}");
    }
    Ok(())
}

/// Merges the shard files `inputs` of one stream into `out`, checking
/// each block before it is written, then flushes.  On any error the
/// partial output file is deleted: a merged file exists only if it is
/// complete and validated.
fn merge_files(
    kind: StreamKind,
    inputs: &[String],
    out: &str,
    mut check: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<u64, String> {
    let mut shards = inputs
        .iter()
        .map(|path| {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open shard file {path}: {e}"))?;
            Ok(BufReader::new(file))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut writer = create(out)?;
    let merged = merge_shards(kind, &mut shards, |block| {
        check(block)?;
        writer
            .write_all(block)
            .map_err(|e| format!("cannot write {out}: {e}"))
    })
    .and_then(|merged| {
        writer
            .flush()
            .map_err(|e| format!("cannot flush {out}: {e}"))?;
        Ok(merged)
    });
    drop(writer);
    if merged.is_err() && !is_stdout(out) {
        let _ = std::fs::remove_file(out);
    }
    merged
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

/// Writes one whole output file through [`create`].
fn write_file(
    path: &str,
    write: impl FnOnce(&mut Box<dyn Write + Send>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut writer = create(path)?;
    write(&mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write {path}: {e}"))
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
