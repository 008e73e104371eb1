//! Integration test of the campaign engine: a small but real sweep
//! (4 environment models × 2 algorithms × 5 seeds) must fully converge, and
//! its emitted output must be *byte-identical* across repeated runs, across
//! thread counts, and across process shards — the determinism contract, in
//! both execution modes.  Streaming (the default, `O(threads)` memory) and
//! the opt-in collected mode must produce the same bytes.

use selfsim_campaign::{
    emit, merge_shards, AlgorithmRef, Campaign, CollectedResult, DeliveryRule, EnvFactory, EnvRef,
    EnvRegistry, ExecutionMode, Params, Registry, ScenarioGrid, ShardSpec, TopoRef,
    TopologyRegistry,
};

fn algorithm(label: &str) -> AlgorithmRef {
    Registry::builtin_ref()
        .resolve(label)
        .expect("builtin label")
}

fn topology(label: &str) -> TopoRef {
    TopologyRegistry::builtin_ref()
        .resolve(label)
        .expect("builtin label")
}

fn env(label: &str) -> EnvRef {
    EnvRegistry::builtin_ref()
        .resolve(label)
        .expect("builtin label")
}

const TRIALS: u64 = 5;

fn sweep() -> Vec<selfsim_campaign::Scenario> {
    ScenarioGrid::new()
        .algorithms([algorithm("minimum"), algorithm("sorting")])
        .topologies([topology("ring")])
        .envs([
            env("static"),
            env("churn(e=0.5,a=0.9)"),
            env("markov(up=0.3,down=0.3)"),
            env("partition(b=3,t=8)"),
        ])
        .sizes([8])
        .trials(TRIALS)
        .max_rounds(200_000)
        .expand()
}

/// Serialises everything a collected campaign emits (per-trial JSONL,
/// per-scenario JSONL, markdown table) into one byte buffer.
fn emitted_bytes(result: &CollectedResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    emit::write_jsonl(&mut bytes, &result.records).expect("records emit");
    emit::write_summary_jsonl(&mut bytes, &result.summaries).expect("summaries emit");
    bytes.extend_from_slice(emit::markdown_summary(&result.summaries).as_bytes());
    bytes
}

#[test]
fn small_campaign_fully_converges() {
    let scenarios = sweep();
    // 2 algorithms × 4 environments × 1 topology × 1 size.
    assert_eq!(scenarios.len(), 8);
    let campaign = Campaign::new(scenarios).seed(2026);
    assert_eq!(campaign.trial_count(), 8 * TRIALS);

    let result = campaign.run_collect();
    assert_eq!(result.records.len(), 8 * TRIALS as usize);
    for record in &result.records {
        assert!(
            record.converged,
            "trial {} of {} (seed {}) did not converge",
            record.trial, record.scenario, record.seed
        );
        assert!(
            record.objective_monotone,
            "objective increased in {} trial {}",
            record.scenario, record.trial
        );
    }
    for summary in &result.summaries {
        assert_eq!(summary.trials, TRIALS);
        assert_eq!(summary.converged, TRIALS);
        assert_eq!(summary.convergence_rate, 1.0);
        assert!(summary.rounds.mean >= 1.0);
    }
}

#[test]
fn rerunning_with_same_seed_is_byte_identical_under_parallelism() {
    let first = Campaign::new(sweep()).seed(7).threads(4).run_collect();
    let second = Campaign::new(sweep()).seed(7).threads(4).run_collect();
    assert_eq!(emitted_bytes(&first), emitted_bytes(&second));

    // Determinism must not depend on the worker count either.
    let sequential = Campaign::new(sweep()).seed(7).threads(1).run_collect();
    assert_eq!(emitted_bytes(&first), emitted_bytes(&sequential));
}

#[test]
fn different_campaign_seeds_give_different_trials() {
    let a = Campaign::new(sweep()).seed(1).run_collect();
    let b = Campaign::new(sweep()).seed(2).run_collect();
    let seeds_a: Vec<u64> = a.records.iter().map(|r| r.seed).collect();
    let seeds_b: Vec<u64> = b.records.iter().map(|r| r.seed).collect();
    assert_ne!(seeds_a, seeds_b);
}

/// The tentpole contract, part 1: the streaming pipeline's bytes are
/// exactly what collecting every record and emitting afterwards produces —
/// in both execution modes — while the streaming run never retains records.
#[test]
fn streamed_bytes_equal_collected_then_emitted_bytes() {
    for scenarios in [sweep(), async_sweep()] {
        let collected = Campaign::new(scenarios.clone())
            .seed(7)
            .threads(4)
            .run_collect();
        let mut collected_bytes = Vec::new();
        emit::write_jsonl(&mut collected_bytes, &collected.records).expect("emit");

        let mut streamed = Vec::new();
        let result = Campaign::new(scenarios)
            .seed(7)
            .threads(4)
            .stream_to(&mut streamed)
            .expect("stream to memory");
        assert_eq!(streamed, collected_bytes);
        assert_eq!(result.summaries, collected.summaries);
        assert_eq!(result.trials as usize, collected.records.len());
    }
}

/// The tentpole contract, part 2: for every shard count × thread count
/// combination, round-robin-merging the shard streams reproduces the
/// unsharded byte stream exactly — threads and shards are both invisible
/// in the output.
#[test]
fn every_shard_and_thread_combination_merges_to_identical_output() {
    let mut full = Vec::new();
    Campaign::new(sweep())
        .seed(7)
        .threads(2)
        .stream_to(&mut full)
        .expect("unsharded stream");

    for shards in [1u64, 2, 3, 5] {
        for threads in [1usize, 4] {
            let mut parts: Vec<std::io::Cursor<Vec<u8>>> = Vec::new();
            for index in 0..shards {
                let mut bytes = Vec::new();
                Campaign::new(sweep())
                    .seed(7)
                    .threads(threads)
                    .shard(ShardSpec::new(index, shards).expect("spec"))
                    .stream_to(&mut bytes)
                    .expect("shard stream");
                parts.push(std::io::Cursor::new(bytes));
            }
            let mut merged = Vec::new();
            let lines = merge_shards(&mut parts, |line| {
                merged.extend_from_slice(line);
                Ok(())
            })
            .expect("merge");
            assert_eq!(
                merged, full,
                "shards={shards} threads={threads} must reproduce the unsharded bytes"
            );
            assert_eq!(lines, 8 * TRIALS, "shards={shards} threads={threads}");
        }
    }
}

/// Malformed `--shard` specs are rejected with descriptive, registry-style
/// errors naming the expected shape.
#[test]
fn shard_specs_reject_malformed_input_with_descriptive_errors() {
    for bad in ["3/3", "0/0", "a/b"] {
        let err = ShardSpec::parse(bad).expect_err(bad);
        assert!(err.contains("invalid shard spec"), "{bad}: {err}");
        assert!(err.contains("expected `i/k`"), "{bad}: {err}");
    }
    assert!(ShardSpec::parse("3/3")
        .unwrap_err()
        .contains("index must be below the shard count"));
    assert!(ShardSpec::parse("0/0")
        .unwrap_err()
        .contains("count must be at least 1"));
}

/// Merging shard streams re-aggregates to the same summaries the unsharded
/// run computes (the CLI's `--merge` path in library form).
#[test]
fn merged_shards_reaggregate_to_unsharded_summaries() {
    let unsharded = Campaign::new(sweep()).seed(7).run();
    let mut parts: Vec<std::io::Cursor<Vec<u8>>> = Vec::new();
    for index in 0..3 {
        let mut bytes = Vec::new();
        Campaign::new(sweep())
            .seed(7)
            .shard(ShardSpec::new(index, 3).expect("spec"))
            .stream_to(&mut bytes)
            .expect("shard stream");
        parts.push(std::io::Cursor::new(bytes));
    }
    let mut aggregator = selfsim_campaign::Aggregator::new();
    merge_shards(&mut parts, |line| {
        aggregator.observe_line(std::str::from_utf8(line).expect("utf8"))
    })
    .expect("merge");
    assert_eq!(aggregator.summaries(), unsharded.summaries);
}

// (Registry label↔factory round-trip and unknown-label error contents are
// covered by the unit tests in crates/campaign/src/algorithm.rs and
// crates/campaign/src/dimension.rs; the proptest round-trip law lives in
// tests/label_roundtrip.rs.)

/// A user environment that *always* fragments: the agent set alternates
/// between its two halves, each half fully connected internally, never a
/// global merge.  Registered by label — no enum edited — its
/// `can_fragment` trait method feeds `Scenario::fragmenting`, so
/// [`Expectation`] checking covers user environments exactly like
/// builtins.
struct HalfSplit;

struct HalfSplitEnv {
    topology: selfsim_env::Topology,
    tick: usize,
}

impl selfsim_env::Environment for HalfSplitEnv {
    fn topology(&self) -> &selfsim_env::Topology {
        &self.topology
    }
    fn step(&mut self, _rng: &mut dyn rand::RngCore) -> selfsim_env::EnvState {
        let n = self.topology.agent_count();
        let active_half = self.tick % 2;
        self.tick += 1;
        let in_half = |a: selfsim_env::AgentId| (a.index() < n / 2) == (active_half == 0);
        let edges: Vec<_> = self
            .topology
            .edges()
            .iter()
            .copied()
            .filter(|e| in_half(e.lo()) && in_half(e.hi()))
            .collect();
        let agents: Vec<_> = self.topology.agents().filter(|&a| in_half(a)).collect();
        selfsim_env::EnvState::new(n, edges, agents)
    }
}

impl EnvFactory for HalfSplit {
    fn family(&self) -> &str {
        "half-split"
    }
    fn label(&self) -> String {
        "half-split".into()
    }
    fn can_fragment(&self) -> bool {
        true
    }
    fn build(&self, topology: selfsim_env::Topology) -> Box<dyn selfsim_env::Environment> {
        Box::new(HalfSplitEnv { topology, tick: 0 })
    }
    fn instantiate(&self, params: Params) -> Result<EnvRef, String> {
        params.finish(&[])?;
        Ok(EnvRef::new(HalfSplit))
    }
}

/// The open environment dimension end to end: a user-registered
/// environment, resolved by label, sweeps through a campaign grid and its
/// `can_fragment()` drives `meets_expectation` for the paper's
/// counterexample.
#[test]
fn user_registered_environment_participates_in_expectation_checking() {
    let mut registry = EnvRegistry::builtin();
    registry.register(EnvRef::new(HalfSplit));
    let env = registry.resolve("half-split").expect("registered by label");

    let scenarios = ScenarioGrid::new()
        .algorithms([algorithm("circumscribing-circle")])
        .topologies([topology("complete")])
        .envs([env])
        .sizes([8])
        .trials(3)
        .max_rounds(2_000)
        .expand();
    assert_eq!(scenarios.len(), 1);
    assert!(
        scenarios[0].fragmenting(),
        "the user env's can_fragment() must reach Scenario::fragmenting"
    );

    let result = Campaign::new(scenarios).seed(3).run_collect();
    for record in &result.records {
        assert_eq!(record.environment, "half-split");
        assert!(
            !record.converged,
            "each half overshoots its own circle and no merge ever reconciles them"
        );
        assert!(
            record.meets_expectation,
            "non-convergence under a fragmenting user env is the expected outcome"
        );
    }
}

fn async_sweep() -> Vec<selfsim_campaign::Scenario> {
    ScenarioGrid::new()
        .algorithms([algorithm("minimum"), algorithm("second-smallest")])
        .topologies([topology("ring")])
        .envs([env("static"), env("churn(e=0.5,a=0.9)")])
        .modes([ExecutionMode::asynchronous()])
        .sizes([8])
        .trials(TRIALS)
        .max_rounds(200_000)
        .expand()
}

/// The determinism-under-parallelism contract holds on the asynchronous
/// runtime too: byte-identical emitted output across thread counts.
#[test]
fn async_campaign_is_byte_identical_across_thread_counts() {
    let parallel = Campaign::new(async_sweep())
        .seed(7)
        .threads(4)
        .run_collect();
    let sequential = Campaign::new(async_sweep())
        .seed(7)
        .threads(1)
        .run_collect();
    assert_eq!(emitted_bytes(&parallel), emitted_bytes(&sequential));
    for record in &parallel.records {
        assert_eq!(record.mode, "async");
        assert!(
            record.converged,
            "{} trial {} did not converge asynchronously",
            record.scenario, record.trial
        );
    }
}

/// Sync and async cells of the same grid compare cell-by-cell: every cell
/// has its cross-runtime sibling, both converge, and the message-passing
/// model pays at least as many messages on average.
#[test]
fn sync_and_async_cells_compare_cell_by_cell() {
    let scenarios = ScenarioGrid::new()
        .algorithms([algorithm("minimum")])
        .topologies([topology("ring")])
        .envs([env("static"), env("churn(e=0.5,a=0.9)")])
        .modes(ExecutionMode::both())
        .sizes([8])
        .trials(TRIALS)
        .expand();
    assert_eq!(scenarios.len(), 4);
    let result = Campaign::new(scenarios).seed(11).run();
    let sync_cells: Vec<_> = result
        .summaries
        .iter()
        .filter(|s| s.mode == "sync")
        .collect();
    let async_cells: Vec<_> = result
        .summaries
        .iter()
        .filter(|s| s.mode == "async")
        .collect();
    assert_eq!(sync_cells.len(), 2);
    assert_eq!(async_cells.len(), 2);
    for sync_cell in &sync_cells {
        let async_cell = async_cells
            .iter()
            .find(|s| s.is_cross_runtime_sibling(sync_cell))
            .expect("every sync cell has an async sibling");
        assert_eq!(
            sync_cell.converged, sync_cell.trials,
            "{}",
            sync_cell.scenario
        );
        assert_eq!(
            async_cell.converged, async_cell.trials,
            "{}",
            async_cell.scenario
        );
        assert!(
            async_cell.messages.mean >= sync_cell.messages.mean,
            "message passing should not be cheaper: {} vs {}",
            async_cell.messages.mean,
            sync_cell.messages.mean
        );
    }
}

/// The delivery-semantics acceptance grid (experiment E14 in miniature):
/// {self-similar minimum, flooding} × {three delivery rules} under the
/// periodic partition whose merge windows are shorter than the message
/// latency.  The historical valid-at-delivery rule exhausts the tick
/// budget in every trial while valid-at-send and any-overlap converge in
/// every trial — and the emitted bytes stay thread-count-invariant for
/// every rule, so the determinism contract covers the new dimension.
#[test]
fn delivery_rules_sweep_as_grid_cells_and_fix_the_partition_stall() {
    let scenarios = ScenarioGrid::new()
        .algorithms([algorithm("minimum"), algorithm("flooding")])
        .topologies([topology("complete")])
        .envs([env("partition(b=2,t=8)")])
        .modes(DeliveryRule::all().map(ExecutionMode::asynchronous_with))
        .sizes([8])
        .trials(3)
        .max_rounds(3_000)
        .expand();
    assert_eq!(scenarios.len(), 6, "2 algorithms × 3 delivery rules");

    let parallel = Campaign::new(scenarios.clone())
        .seed(5)
        .threads(4)
        .run_collect();
    let sequential = Campaign::new(scenarios).seed(5).threads(1).run_collect();
    assert_eq!(emitted_bytes(&parallel), emitted_bytes(&sequential));

    for summary in &parallel.summaries {
        assert_eq!(summary.trials, 3, "{}", summary.scenario);
        if summary.delivery == "valid-at-delivery" {
            assert_eq!(
                summary.converged, 0,
                "single-tick merges must starve {}",
                summary.scenario
            );
        } else {
            assert_eq!(
                summary.converged, summary.trials,
                "{} must converge",
                summary.scenario
            );
        }
    }
    // The rule is a visible column in both emitters.
    let table = emit::markdown_summary(&parallel.summaries);
    assert!(table.lines().next().unwrap().contains("| delivery |"));
    for rule in DeliveryRule::all() {
        assert!(table.contains(&rule.label()), "{} missing", rule.label());
        assert!(
            parallel.records.iter().any(|r| r.delivery == rule.label()),
            "{} missing from records",
            rule.label()
        );
    }
}

/// The acceptance grid of the API redesign: {a self-similar algorithm,
/// snapshot, flooding} × {sync, async} × a dynamic environment, one
/// campaign, per-cell summaries with an execution-mode column.
#[test]
fn self_similar_and_baselines_sweep_both_runtimes_in_one_grid() {
    let scenarios = ScenarioGrid::new()
        .algorithms(["minimum", "snapshot", "flooding"].map(algorithm))
        .topologies([topology("complete")])
        .envs([env("churn(e=0.5,a=0.9)")])
        .modes(ExecutionMode::both())
        .sizes([8])
        .trials(TRIALS)
        .max_rounds(100_000)
        .expand();
    assert_eq!(scenarios.len(), 6, "3 strategies × 2 modes");
    let result = Campaign::new(scenarios).seed(2026).run();
    assert_eq!(result.summaries.len(), 6);
    for (algorithm, mode) in [
        ("minimum", "sync"),
        ("minimum", "async"),
        ("snapshot", "sync"),
        ("snapshot", "async"),
        ("flooding", "sync"),
        ("flooding", "async"),
    ] {
        assert!(
            result
                .summaries
                .iter()
                .any(|s| s.algorithm == algorithm && s.mode == mode),
            "missing cell {algorithm}/{mode}"
        );
    }
    // The markdown table carries the execution-mode column.
    let table = emit::markdown_summary(&result.summaries);
    assert!(table.lines().next().unwrap().contains("| mode |"));
    // The self-similar algorithm converges everywhere in this grid.
    for summary in result.summaries.iter().filter(|s| s.algorithm == "minimum") {
        assert_eq!(summary.converged, summary.trials, "{}", summary.scenario);
    }
}
