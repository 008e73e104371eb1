//! The parallel, streaming campaign runner.
//!
//! Determinism is the design constraint: a campaign's emitted record and
//! trace streams must be byte-identical for a given `(scenarios, campaign
//! seed)` pair no matter how many worker threads run it — or how many
//! process shards it is split over.  One engine, [`Campaign::stream`],
//! writes both streams; [`Campaign::run`], [`Campaign::stream_to`] and
//! [`Campaign::run_collect`] are thin calls of it.  Four mechanisms
//! provide this:
//!
//! 1. every trial's seed is *derived* (SplitMix64 over the campaign seed,
//!    the scenario name and the trial index), never drawn from a shared
//!    RNG and never from the thread or shard that happens to run it;
//! 2. trials are identified by their *global position* in the flat,
//!    scenario-major/trial-minor job list; a shard owns a stable stride of
//!    positions ([`ShardSpec`]);
//! 3. workers claim positions from an atomic counter and hand finished
//!    records to an *ordered reorder window* that releases them strictly
//!    in position order, so completion order is irrelevant;
//! 4. aggregation folds incrementally into per-scenario cells keyed by
//!    name (order-independent), and emission happens through the window.
//!
//! Memory is `O(threads)`, not `O(trials)`: workers serialize each record
//! into a spill buffer as the trial finishes, the reorder window holds at
//! most `threads × window-factor` pending buffers (a worker that runs too
//! far ahead parks until the stream catches up), and released bytes go
//! straight to the sinks.  Nothing per-trial survives the run unless the
//! opt-in [`Campaign::run_collect`] is used, which parses the streamed
//! record lines back.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use selfsim_trace::{Counter, EventLog, Histogram, MetricsRegistry, StageTimer, TraceEvent};

use crate::aggregate::{Aggregator, ScenarioSummary};
use crate::scenario::Scenario;
use crate::shard::ShardSpec;
use crate::trial::{run_cell_trial, run_cell_trial_traced, Columns, TrialRecord, LINE_CAPACITY};

/// How many finished-but-unreleased records the reorder window may hold
/// per worker thread before fast workers park.  Bounds peak memory at
/// `O(threads)` regardless of trial count while keeping enough slack that
/// parking is rare in practice.
const REORDER_WINDOW_PER_THREAD: usize = 8;

/// Stage timers measure every `OBS_SAMPLE`-th trial (by shard-local job
/// index) rather than all of them: `Instant::now` is a syscall on kernels
/// without a vDSO clock fast path, and six reads per ~20 µs trial costs
/// several percent of throughput — sampling keeps the per-stage breakdown
/// representative while the counters and the depth histogram stay exact
/// over *every* trial.
const OBS_SAMPLE: u64 = 8;

/// Configuration of a campaign run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignConfig {
    /// The master seed every per-trial seed is derived from.
    pub seed: u64,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Which stride of the job list this process runs (default: all).
    pub shard: ShardSpec,
}

/// A set of scenarios plus run configuration — the executable form of an
/// experiment campaign.
#[derive(Clone, Debug)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    config: CampaignConfig,
    observe: Option<Arc<MetricsRegistry>>,
}

/// The pre-registered metric handles the streaming pipeline updates — one
/// `Arc` clone per handle up front, so the hot loop never touches the
/// registry's name map.
struct PipelineObs {
    trial_run: Arc<StageTimer>,
    serialize: Arc<StageTimer>,
    reorder_wait: Arc<StageTimer>,
    sink_write: Arc<StageTimer>,
    reorder_depth: Arc<Histogram>,
    sink_stalls: Arc<Counter>,
    trials: Arc<Counter>,
    messages: Arc<Counter>,
    messages_dropped: Arc<Counter>,
    messages_requeued: Arc<Counter>,
    group_steps: Arc<Counter>,
    effective_group_steps: Arc<Counter>,
}

impl PipelineObs {
    fn new(registry: &MetricsRegistry) -> Self {
        PipelineObs {
            trial_run: registry.timer("pipeline/trial-run"),
            serialize: registry.timer("pipeline/serialize"),
            reorder_wait: registry.timer("pipeline/reorder-wait"),
            sink_write: registry.timer("pipeline/sink-write"),
            reorder_depth: registry.histogram("pipeline/reorder-depth"),
            sink_stalls: registry.counter("pipeline/sink-stalls"),
            trials: registry.counter("campaign/trials"),
            messages: registry.counter("sim/messages"),
            messages_dropped: registry.counter("sim/messages_dropped"),
            messages_requeued: registry.counter("sim/messages_requeued"),
            group_steps: registry.counter("sim/group_steps"),
            effective_group_steps: registry.counter("sim/effective_group_steps"),
        }
    }

    /// Folds one finished trial's scalar counters.
    fn observe_record(&self, record: &TrialRecord) {
        self.trials.incr();
        self.messages.add(record.messages as u64);
        self.messages_dropped.add(record.messages_dropped as u64);
        self.messages_requeued.add(record.messages_requeued as u64);
        self.group_steps.add(record.group_steps as u64);
        self.effective_group_steps
            .add(record.effective_group_steps as u64);
    }
}

/// What a finished campaign retains: the closed per-scenario aggregation
/// and the executed-trial count.  Per-trial records are *streamed* (to the
/// sinks passed to [`Campaign::stream`], or dropped after aggregation by
/// [`Campaign::run`]), never accumulated here — use the opt-in
/// [`Campaign::run_collect`] when a test or small run wants them in
/// memory.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Per-scenario summaries, sorted by scenario name.
    pub summaries: Vec<ScenarioSummary>,
    /// Trials executed by this process (the shard's share of the grid).
    pub trials: u64,
}

/// The opt-in collected form: every record of this process's shard, in
/// deterministic (scenario-major, trial-minor) order, plus the
/// aggregation.  Memory is `O(trials)` by construction.
#[derive(Clone, Debug)]
pub struct CollectedResult {
    /// One record per executed trial, in global job order.
    pub records: Vec<TrialRecord>,
    /// Per-scenario summaries, sorted by scenario name.
    pub summaries: Vec<ScenarioSummary>,
}

impl Campaign {
    /// Creates a campaign over `scenarios` with default configuration.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Campaign {
            scenarios,
            config: CampaignConfig::default(),
            observe: None,
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread count (`0` = one per CPU).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Restricts this process to one stride shard of the job list.  Seeds
    /// and record bytes are shard-independent, so the concatenation (via
    /// [`crate::merge_shards`]) of all `k` shard streams is byte-identical
    /// to an unsharded run.
    pub fn shard(mut self, shard: ShardSpec) -> Self {
        self.config.shard = shard;
        self
    }

    /// Attaches a [`MetricsRegistry`] the run will update: per-stage
    /// pipeline timers (`pipeline/trial-run`, `pipeline/serialize`,
    /// `pipeline/reorder-wait`, `pipeline/sink-write`), the
    /// `pipeline/reorder-depth` histogram and `pipeline/sink-stalls`
    /// counter, and the `sim/*` / `campaign/trials` counters folded from
    /// every finished record.  Counters and the depth histogram are exact;
    /// the stage timers sample one trial in `OBS_SAMPLE` (8) to keep clock
    /// reads off the per-trial hot path.  Metrics read the run — they
    /// never perturb the records or their bytes; without a registry the
    /// run takes no clock readings at all.
    pub fn observe(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.observe = Some(registry);
        self
    }

    /// The scenarios of this campaign.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Total number of trials in the whole campaign (all shards).
    pub fn trial_count(&self) -> u64 {
        self.scenarios.iter().map(|s| s.trials).sum()
    }

    /// Number of trials this process's shard will run.
    pub fn shard_trial_count(&self) -> u64 {
        self.config.shard.size(self.trial_count())
    }

    /// The seed trial `trial` of `scenario` will run with.
    ///
    /// Mixes the campaign seed, a hash of the scenario's *seed name*
    /// ([`Scenario::seed_name`] — the cell name for sync/async cells, the
    /// matching sync cell's name for event cells) and the trial index
    /// through SplitMix64, so every trial in the campaign gets an
    /// independent, schedule- and shard-free seed, and semantically
    /// equivalent cells across runtimes draw identical streams.
    pub fn trial_seed(&self, scenario: &Scenario, trial: u64) -> u64 {
        self.seed_for(fnv1a(scenario.seed_name().as_bytes()), trial)
    }

    fn seed_for(&self, scenario_hash: u64, trial: u64) -> u64 {
        splitmix64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(scenario_hash)
                .wrapping_add(splitmix64(trial)),
        )
    }

    /// Runs this shard's trials in parallel and returns the aggregation
    /// only — records are folded and dropped, so memory stays
    /// `O(threads)` however many trials run.
    pub fn run(&self) -> CampaignResult {
        self.stream(None, None, |_, _| {})
            .expect("aggregate-only runs perform no I/O")
    }

    /// Streams this shard's records to `sink` as JSON lines in
    /// deterministic global job order, returning the aggregation.
    pub fn stream_to<W: Write + Send>(&self, sink: &mut W) -> std::io::Result<CampaignResult> {
        self.stream(Some(sink), None, |_, _| {})
    }

    /// Opt-in collection for tests and small runs: streams the records and
    /// parses each line back, so a collected record is exactly what
    /// [`Campaign::stream_to`] writes.  Memory is `O(trials)`.
    pub fn run_collect(&self) -> CollectedResult {
        let mut lines = RecordLines::default();
        let result = self
            .stream(Some(&mut lines), None, |_, _| {})
            .expect("every streamed record parses back");
        CollectedResult {
            records: lines.records,
            summaries: result.summaries,
        }
    }

    /// The one streaming engine behind every run method: runs this shard's
    /// trials, writes their JSONL records to `records` and their event
    /// blocks (`trial-start` … `trial-end`, one JSON event per line) to
    /// `trace`, and returns the aggregation.  `progress(done, shard
    /// total)` is called after every finished trial, from worker threads;
    /// keep it cheap (see [`ProgressThrottle`]).
    ///
    /// Workers claim shard-local job indices from an atomic counter, run
    /// the trial, fold the record into a local aggregator, serialize what
    /// the sinks want into a spill buffer and hand it to the reorder
    /// window, which releases buffers to the sinks strictly in job order.
    /// So both byte streams are identical however many threads run, and
    /// the round-robin merge of shard streams ([`crate::merge_shards`])
    /// reconstructs the unsharded bytes.  A worker more than the window
    /// size ahead of the release cursor parks on a condvar until the
    /// stream catches up, bounding pending memory at `O(threads)`.  With
    /// neither sink, nothing is serialized and the window is skipped.
    pub fn stream(
        &self,
        records: Option<&mut (dyn Write + Send + '_)>,
        trace: Option<&mut (dyn Write + Send + '_)>,
        progress: impl Fn(u64, u64) + Sync,
    ) -> std::io::Result<CampaignResult> {
        // Per-scenario prefix sums: the job list itself is never
        // materialised — global position -> (scenario, trial) is a binary
        // search, so job bookkeeping is O(#scenarios), not O(#trials).
        // Each cell's seed-name hash and record columns are rendered once
        // here, not once per trial.
        let mut offsets: Vec<u64> = Vec::with_capacity(self.scenarios.len());
        let mut cells: Vec<(u64, Columns)> = Vec::with_capacity(self.scenarios.len());
        let mut total = 0u64;
        for scenario in &self.scenarios {
            offsets.push(total);
            cells.push((
                fnv1a(scenario.seed_name().as_bytes()),
                Columns::of(scenario),
            ));
            total += scenario.trials;
        }
        let shard = self.config.shard;
        let shard_total = shard.size(total);

        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.threads
        }
        .min(shard_total.max(1) as usize);

        let serialize = records.is_some();
        let tracing = trace.is_some();
        // Aggregate-only runs have no ordered side effects, so they skip
        // the reorder window entirely.
        let ordered = serialize || tracing;
        let window = threads * REORDER_WINDOW_PER_THREAD;
        let obs = self.observe.as_deref().map(PipelineObs::new);
        let obs = obs.as_ref();

        let reorder = Mutex::new(Reorder {
            next: 0,
            pending: BTreeMap::new(),
            records: records.map(|w| w as &mut (dyn Write + Send)),
            trace: trace.map(|w| w as &mut (dyn Write + Send)),
            obs,
            error: None,
        });
        let space = Condvar::new();
        // Workers aggregate locally and merge at the barrier (aggregation
        // is commutative), so the hot loop takes no shared lock in
        // aggregate-only mode.
        let merged = Mutex::new(Aggregator::new());
        let next_job = AtomicUsize::new(0);
        let done = AtomicU64::new(0);
        let abort = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut aggregator = Aggregator::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let local = next_job.fetch_add(1, Ordering::Relaxed) as u64;
                        if local >= shard_total {
                            break;
                        }
                        let global = shard.global_position(local);
                        let scenario_idx = offsets.partition_point(|&o| o <= global) - 1;
                        let trial = global - offsets[scenario_idx];
                        let scenario = &self.scenarios[scenario_idx];
                        let (hash, columns) = &cells[scenario_idx];
                        let seed = self.seed_for(*hash, trial);
                        let sampled = obs.filter(|_| local.is_multiple_of(OBS_SAMPLE));
                        let (record, events) = timed(sampled.map(|o| &*o.trial_run), || {
                            if tracing {
                                let (record, events) =
                                    run_cell_trial_traced(scenario, columns, trial, seed);
                                (record, Some(events))
                            } else {
                                let off = &mut EventLog::disabled();
                                (run_cell_trial(scenario, columns, trial, seed, off), None)
                            }
                        });
                        if let Some(obs) = obs {
                            obs.observe_record(&record);
                        }

                        aggregator.observe(&record);

                        if ordered {
                            // The spill buffer: the record leaves the worker
                            // as bytes, never as shared mutable state.
                            let slot = timed(sampled.map(|o| &*o.serialize), || Slot {
                                bytes: serialize.then(|| {
                                    let mut line = Vec::with_capacity(LINE_CAPACITY);
                                    record.write_jsonl(&mut line);
                                    line
                                }),
                                trace: events.as_deref().map(trace_block),
                            });
                            let mut state = reorder.lock().expect("reorder lock");
                            if local >= state.next + window as u64 && state.error.is_none() {
                                // The window is full: the sink has fallen
                                // behind this worker.
                                if let Some(obs) = obs {
                                    obs.sink_stalls.incr();
                                }
                                state = timed(obs.map(|o| &*o.reorder_wait), || {
                                    space
                                        .wait_while(state, |state| {
                                            local >= state.next + window as u64
                                                && state.error.is_none()
                                        })
                                        .expect("reorder condvar")
                                });
                            }
                            let failed = state.error.is_some() || {
                                state.pending.insert(local, slot);
                                if let Some(obs) = obs {
                                    obs.reorder_depth.record(state.pending.len() as u64);
                                }
                                state.release().is_err()
                            };
                            drop(state);
                            space.notify_all();
                            if failed {
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }

                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        progress(finished, shard_total);
                    }
                    merged.lock().expect("aggregator lock").merge(aggregator);
                });
            }
        });

        let mut state = reorder.into_inner().expect("reorder lock");
        if let Some(error) = state.error.take() {
            return Err(error);
        }
        debug_assert!(state.pending.is_empty(), "window drained at barrier");
        let aggregator = merged.into_inner().expect("aggregator lock");
        Ok(CampaignResult {
            summaries: aggregator.summaries(),
            trials: done.load(Ordering::Relaxed),
        })
    }
}

/// Serializes one trial's event block as JSONL bytes, one event per line,
/// ending with the `trial-end` line the shard merge delimits blocks by.
fn trace_block(events: &[TraceEvent]) -> Vec<u8> {
    let mut block = Vec::new();
    for event in events {
        event.write_jsonl(&mut block);
    }
    block
}

/// One finished trial in flight between a worker and the ordered release:
/// its serialized JSONL line (when streaming records) and its serialized
/// event block (when tracing).
struct Slot {
    bytes: Option<Vec<u8>>,
    trace: Option<Vec<u8>>,
}

/// The ordered reorder window: releases finished trials strictly in job
/// order regardless of completion order.
struct Reorder<'a> {
    /// The next shard-local job index to release.
    next: u64,
    /// Finished jobs ahead of `next`, bounded by the window size.
    pending: BTreeMap<u64, Slot>,
    records: Option<&'a mut (dyn Write + Send)>,
    trace: Option<&'a mut (dyn Write + Send)>,
    obs: Option<&'a PipelineObs>,
    error: Option<std::io::Error>,
}

impl<'a> Reorder<'a> {
    /// Releases every consecutive pending slot starting at `next`.  On a
    /// sink error, records it (for the caller) and reports failure so
    /// workers can abort.
    fn release(&mut self) -> Result<(), ()> {
        while let Some(slot) = self.pending.remove(&self.next) {
            let timer = self.obs.filter(|_| self.next.is_multiple_of(OBS_SAMPLE));
            let written = timed(timer.map(|o| &*o.sink_write), || {
                write_some(self.trace.as_deref_mut(), slot.trace)?;
                write_some(self.records.as_deref_mut(), slot.bytes)
            });
            if let Err(e) = written {
                self.error = Some(e);
                return Err(());
            }
            self.next += 1;
        }
        Ok(())
    }
}

/// Runs `f`, recording its wall time in `timer` when there is one.
fn timed<T>(timer: Option<&StageTimer>, f: impl FnOnce() -> T) -> T {
    #[expect(
        clippy::disallowed_methods,
        reason = "PipelineObs stage timers; off unless a registry is attached, and metrics never touch record bytes"
    )]
    let t0 = timer.map(|_| Instant::now());
    let value = f();
    if let (Some(timer), Some(t0)) = (timer, t0) {
        timer.record(t0.elapsed());
    }
    value
}

/// Writes `bytes` to `sink` when there are both.
fn write_some(
    sink: Option<&mut (dyn Write + Send + '_)>,
    bytes: Option<Vec<u8>>,
) -> std::io::Result<()> {
    match (sink, bytes) {
        (Some(sink), Some(bytes)) => sink.write_all(&bytes),
        _ => Ok(()),
    }
}

/// The sink behind [`Campaign::run_collect`]: parses each streamed record
/// line back into a [`TrialRecord`] as it arrives.
#[derive(Default)]
struct RecordLines {
    line: Vec<u8>,
    records: Vec<TrialRecord>,
}

impl Write for RecordLines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for chunk in buf.split_inclusive(|&b| b == b'\n') {
            self.line.extend_from_slice(chunk);
            if self.line.ends_with(b"\n") {
                let record = std::str::from_utf8(&self.line)
                    .map_err(|e| e.to_string())
                    .and_then(TrialRecord::from_jsonl_line)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                self.records.push(record);
                self.line.clear();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A lock-free rate limiter for progress reporting from worker threads.
///
/// [`Campaign::stream`] fires its progress callback once per finished
/// trial; printing every call would serialize a million-trial campaign on
/// stderr.  [`ProgressThrottle::report`] returns `true` for at most one
/// caller per interval — except for the final `done >= total` update,
/// which *always* passes (exactly once), so a run never finishes with its
/// progress line stuck short of 100%:
///
/// ```
/// use selfsim_campaign::ProgressThrottle;
/// use std::time::Duration;
///
/// let throttle = ProgressThrottle::every(Duration::from_millis(100));
/// let progress = |done: u64, total: u64| {
///     if throttle.report(done, total) {
///         eprintln!("  {done}/{total} trials");
///     }
/// };
/// progress(1, 2);
/// progress(2, 2); // the 100% line is never throttled away
/// ```
pub struct ProgressThrottle {
    start: Instant,
    interval_ms: u64,
    /// Milliseconds (since `start`) of the last update that passed;
    /// `u64::MAX` until the first.
    last: AtomicU64,
    /// One past the highest `done` that has been reported; a later update
    /// that ties a stale worker's count never passes, and the final update
    /// passes exactly once however many workers race on it.
    emitted: AtomicU64,
}

impl ProgressThrottle {
    /// A throttle that passes at most one update per `interval` (~10
    /// updates/sec at the CLI's 100 ms).
    #[expect(
        clippy::disallowed_methods,
        reason = "progress pacing only; throttle decisions gate stderr lines, never record bytes"
    )]
    pub fn every(interval: Duration) -> Self {
        ProgressThrottle {
            start: Instant::now(),
            interval_ms: (interval.as_millis() as u64).max(1),
            last: AtomicU64::new(u64::MAX),
            emitted: AtomicU64::new(0),
        }
    }

    /// `true` when the caller should print this `(done, total)` update:
    /// rate-limited to one per interval in the steady state, but the final
    /// update (`done >= total`) always passes, exactly once.
    pub fn report(&self, done: u64, total: u64) -> bool {
        if self.emitted.load(Ordering::Relaxed) > done {
            // A higher count was already reported; this stale update
            // would move the progress line backwards.
            return false;
        }
        if done >= total || self.ready() {
            // `fetch_max` arbitrates racing reporters: exactly one caller
            // per `done` value observes `prev <= done` and wins.
            let prev = self.emitted.fetch_max(done + 1, Ordering::Relaxed);
            return prev <= done;
        }
        false
    }

    /// `true` when the caller won the right to report progress now.
    pub fn ready(&self) -> bool {
        let now = self.start.elapsed().as_millis() as u64;
        let mut last = self.last.load(Ordering::Relaxed);
        loop {
            if last != u64::MAX && now.saturating_sub(last) < self.interval_ms {
                return false;
            }
            match self
                .last
                .compare_exchange_weak(last, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(current) => last = current,
            }
        }
    }
}

/// SplitMix64 — the standard 64-bit seed mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for hashing scenario names into the seed mix.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::test_labels::{algorithm, env, topology};
    use crate::scenario::ScenarioGrid;

    fn small_campaign() -> Campaign {
        let scenarios = ScenarioGrid::new()
            .algorithms([algorithm("minimum"), algorithm("maximum")])
            .topologies([topology("ring")])
            .envs([env("static"), env("churn(e=0.5,a=0.9)")])
            .sizes([6])
            .trials(3)
            .max_rounds(50_000)
            .expand();
        Campaign::new(scenarios).seed(7)
    }

    #[test]
    fn runs_every_trial_once_in_order() {
        let campaign = small_campaign();
        let collected = campaign.run_collect();
        assert_eq!(collected.records.len(), campaign.trial_count() as usize);
        // Scenario-major, trial-minor ordering.
        let expected: Vec<(String, u64)> = campaign
            .scenarios()
            .iter()
            .flat_map(|s| (0..s.trials).map(move |t| (s.name(), t)))
            .collect();
        let actual: Vec<(String, u64)> = collected
            .records
            .iter()
            .map(|r| (r.scenario.clone(), r.trial))
            .collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sequential = small_campaign().threads(1).run_collect();
        let parallel = small_campaign().threads(4).run_collect();
        assert_eq!(sequential.records, parallel.records);
        assert_eq!(sequential.summaries, parallel.summaries);
    }

    #[test]
    fn streaming_collecting_and_aggregate_only_runs_agree() {
        let campaign = small_campaign().threads(4);
        let collected = campaign.run_collect();
        let mut streamed = Vec::new();
        let stream_result = campaign.stream_to(&mut streamed).expect("stream to memory");
        let aggregate_only = campaign.run();

        // Streamed bytes == collected records serialized after the fact.
        let mut emitted = Vec::new();
        crate::emit::write_jsonl(&mut emitted, &collected.records).expect("emit");
        assert_eq!(streamed, emitted);

        // All three modes agree on the aggregation.
        assert_eq!(stream_result.summaries, collected.summaries);
        assert_eq!(aggregate_only.summaries, collected.summaries);
        assert_eq!(stream_result.trials, campaign.trial_count());
        assert_eq!(aggregate_only.trials, campaign.trial_count());
    }

    #[test]
    fn reorder_window_survives_many_small_trials() {
        // More trials than the reorder window for 8 workers: fast workers
        // must park and the released stream must still be in order.
        let scenarios = ScenarioGrid::new()
            .algorithms([algorithm("minimum")])
            .topologies([topology("ring")])
            .envs([env("static")])
            .sizes([4])
            .trials(500)
            .max_rounds(10_000)
            .expand();
        let mut parallel = Vec::new();
        Campaign::new(scenarios.clone())
            .seed(3)
            .threads(8)
            .stream_to(&mut parallel)
            .expect("stream");
        let mut sequential = Vec::new();
        Campaign::new(scenarios)
            .seed(3)
            .threads(1)
            .stream_to(&mut sequential)
            .expect("stream");
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.iter().filter(|&&b| b == b'\n').count(), 500);
    }

    #[test]
    fn sharded_runs_partition_the_campaign() {
        let campaign = small_campaign();
        let full = campaign.run_collect();
        let mut reassembled: Vec<Option<TrialRecord>> = vec![None; full.records.len()];
        for index in 0..3 {
            let shard = ShardSpec::new(index, 3).expect("spec");
            let part = small_campaign().shard(shard).run_collect();
            assert_eq!(
                part.records.len() as u64,
                shard.size(campaign.trial_count())
            );
            for (local, record) in part.records.into_iter().enumerate() {
                let global = shard.global_position(local as u64) as usize;
                assert!(reassembled[global].replace(record).is_none());
            }
        }
        let reassembled: Vec<TrialRecord> = reassembled
            .into_iter()
            .map(|r| r.expect("covered"))
            .collect();
        assert_eq!(reassembled, full.records);
    }

    #[test]
    fn stream_propagates_sink_errors() {
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = small_campaign()
            .threads(4)
            .stream_to(&mut FailingSink)
            .expect_err("sink errors must surface");
        assert_eq!(err.to_string(), "sink full");
    }

    #[test]
    fn campaign_seed_changes_trials() {
        let a = small_campaign().seed(1).run_collect();
        let b = small_campaign().seed(2).run_collect();
        assert_ne!(
            a.records.iter().map(|r| r.seed).collect::<Vec<_>>(),
            b.records.iter().map(|r| r.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trial_seeds_are_distinct_across_scenarios_and_trials() {
        let campaign = small_campaign();
        let mut seeds = std::collections::BTreeSet::new();
        for scenario in campaign.scenarios() {
            for trial in 0..scenario.trials {
                assert!(seeds.insert(campaign.trial_seed(scenario, trial)));
            }
        }
    }

    #[test]
    fn progress_reaches_total() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let campaign = small_campaign().threads(2);
        let max_done = AtomicU64::new(0);
        let result = campaign
            .stream(None, None, |done, total| {
                assert!(done <= total);
                max_done.fetch_max(done, Ordering::Relaxed);
            })
            .expect("aggregate-only run");
        assert_eq!(max_done.load(Ordering::Relaxed), campaign.trial_count());
        assert_eq!(result.summaries.len(), campaign.scenarios().len());
        assert_eq!(result.trials, campaign.trial_count());
    }

    #[test]
    fn trace_stream_is_thread_count_invariant() {
        let campaign = small_campaign();
        let mut records1 = Vec::new();
        let mut trace1 = Vec::new();
        campaign
            .clone()
            .threads(1)
            .stream(Some(&mut records1), Some(&mut trace1), |_, _| {})
            .expect("traced stream");
        let mut records4 = Vec::new();
        let mut trace4 = Vec::new();
        campaign
            .clone()
            .threads(4)
            .stream(Some(&mut records4), Some(&mut trace4), |_, _| {})
            .expect("traced stream");
        assert_eq!(trace1, trace4, "trace bytes must not depend on threads");
        assert_eq!(records1, records4);

        // Tracing must not perturb the record stream itself.
        let mut plain = Vec::new();
        campaign.stream_to(&mut plain).expect("plain stream");
        assert_eq!(records1, plain);

        // One block per trial: trial-start and trial-end lines pair up.
        let text = String::from_utf8(trace1).expect("utf8 trace");
        let starts = text
            .lines()
            .filter(|l| l.starts_with("{\"event\":\"trial-start\""))
            .count();
        let ends = text
            .lines()
            .filter(|l| l.starts_with("{\"event\":\"trial-end\""))
            .count();
        assert_eq!(starts as u64, campaign.trial_count());
        assert_eq!(ends as u64, campaign.trial_count());
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut observed = Vec::new();
        let result = small_campaign()
            .threads(4)
            .observe(Arc::clone(&registry))
            .stream_to(&mut observed)
            .expect("stream");
        let mut plain = Vec::new();
        small_campaign()
            .threads(4)
            .stream_to(&mut plain)
            .expect("stream");
        assert_eq!(observed, plain, "metrics must never perturb the bytes");

        let snapshot = registry.snapshot_json();
        assert!(snapshot.contains("\"campaign/trials\""));
        assert!(snapshot.contains("\"pipeline/trial-run\""));
        let trials = registry.counter("campaign/trials");
        assert_eq!(trials.get(), result.trials);
    }

    #[test]
    fn progress_report_always_emits_final_line() {
        // An hour-long interval: nothing but the first and final updates
        // may pass, and the final one passes exactly once.
        let throttle = ProgressThrottle::every(Duration::from_secs(3600));
        assert!(throttle.report(1, 3), "first update always passes");
        assert!(!throttle.report(2, 3), "throttled inside the interval");
        assert!(throttle.report(3, 3), "final update must not be throttled");
        assert!(!throttle.report(3, 3), "final update passes only once");
        assert!(!throttle.report(2, 3), "stale updates never pass");
    }

    #[test]
    fn progress_throttle_admits_one_update_per_interval() {
        let throttle = ProgressThrottle::every(Duration::from_secs(3600));
        assert!(throttle.ready(), "first update always passes");
        for _ in 0..1000 {
            assert!(!throttle.ready(), "within the interval nothing passes");
        }
        let instant = ProgressThrottle::every(Duration::from_millis(1));
        assert!(instant.ready());
        std::thread::sleep(Duration::from_millis(5));
        assert!(instant.ready(), "after the interval the next call passes");
    }
}
