//! Integration contracts of the observability layer:
//!
//! * traced campaigns are deterministic — the event stream is
//!   byte-identical across thread counts, and the block-wise merge of
//!   sharded trace streams reconstructs the unsharded bytes exactly;
//! * `messages_requeued` is a first-class record column — structurally
//!   zero under `valid-at-delivery`/`valid-at-send` (and absent from the
//!   serialized line, keeping requeue-free cells byte-stable), non-zero
//!   under `any-overlap` in a fragmenting environment;
//! * every emitted trace line round-trips through the event
//!   deserializer, so the stream is replayable, not just greppable.

use std::io::BufReader;

use selfsim_campaign::{
    merge_shards, merge_trace_shards, AlgorithmRef, Campaign, DeliveryRule, EnvRef, EnvRegistry,
    ExecutionMode, Registry, ScenarioGrid, ShardSpec, TopoRef, TopologyRegistry,
};
use selfsim_trace::TraceEvent;
use serde::Deserialize;

/// A grid crossing the sync simulator, the async simulator (all three
/// delivery rules) and both baselines over a fragmenting environment —
/// every event-emitting code path.
fn ring() -> TopoRef {
    TopologyRegistry::builtin_ref()
        .resolve("ring")
        .expect("builtin label")
}

fn partition() -> EnvRef {
    EnvRegistry::builtin_ref()
        .resolve("partition(b=2,t=8)")
        .expect("builtin label")
}

fn traced_campaign() -> Campaign {
    let registry = Registry::builtin();
    let algorithms: Vec<AlgorithmRef> = ["minimum", "snapshot", "flooding"]
        .iter()
        .map(|name| registry.get(name).expect("builtin algorithm"))
        .collect();
    let scenarios = ScenarioGrid::new()
        .algorithms(algorithms)
        .topologies([ring()])
        .envs([
            EnvRegistry::builtin_ref()
                .resolve("static")
                .expect("builtin label"),
            partition(),
        ])
        .modes([
            ExecutionMode::sync(),
            ExecutionMode::asynchronous(),
            ExecutionMode::asynchronous_with(DeliveryRule::AnyOverlap { grace: 4 }),
        ])
        .sizes([6])
        .trials(1)
        // A tight tick budget: non-converging async cells would otherwise
        // emit tens of thousands of per-tick events each, and this test
        // cares about stream structure, not convergence.
        .max_rounds(1_500)
        .expand();
    Campaign::new(scenarios).seed(1234)
}

fn stream_traced(campaign: Campaign) -> (Vec<u8>, Vec<u8>) {
    let mut records = Vec::new();
    let mut trace = Vec::new();
    campaign
        .stream_with_trace(&mut records, &mut trace, |_, _| {})
        .expect("traced stream to memory");
    (records, trace)
}

#[test]
fn trace_stream_is_identical_across_threads_and_shard_merges() {
    let (records1, trace1) = stream_traced(traced_campaign().threads(1));
    let (records4, trace4) = stream_traced(traced_campaign().threads(4));
    assert_eq!(records1, records4, "record bytes depend on thread count");
    assert_eq!(trace1, trace4, "trace bytes depend on thread count");

    // Run the same campaign as two stride shards and merge both streams.
    let mut record_shards = Vec::new();
    let mut trace_shards = Vec::new();
    for index in 0..2 {
        let shard = ShardSpec::new(index, 2).expect("shard spec");
        let (records, trace) = stream_traced(traced_campaign().threads(2).shard(shard));
        record_shards.push(records);
        trace_shards.push(trace);
    }

    let mut merged_records = Vec::new();
    let mut readers: Vec<BufReader<&[u8]>> = record_shards
        .iter()
        .map(|bytes| BufReader::new(bytes.as_slice()))
        .collect();
    merge_shards(&mut readers, |line| {
        merged_records.extend_from_slice(line);
        Ok(())
    })
    .expect("record merge");
    assert_eq!(merged_records, records1, "sharded record merge diverged");

    let mut merged_trace = Vec::new();
    let mut readers: Vec<BufReader<&[u8]>> = trace_shards
        .iter()
        .map(|bytes| BufReader::new(bytes.as_slice()))
        .collect();
    let blocks = merge_trace_shards(&mut readers, |line| {
        merged_trace.extend_from_slice(line);
        Ok(())
    })
    .expect("trace merge");
    assert_eq!(merged_trace, trace1, "sharded trace merge diverged");
    assert_eq!(
        blocks,
        traced_campaign().trial_count(),
        "one block per trial"
    );
}

#[test]
fn every_trace_line_round_trips_through_the_event_deserializer() {
    let (_, trace) = stream_traced(traced_campaign().threads(2));
    let text = String::from_utf8(trace).expect("trace is utf8");
    let mut lines = 0usize;
    let mut in_block = false;
    for line in text.lines() {
        let value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        let event = TraceEvent::from_value(&value)
            .unwrap_or_else(|e| panic!("unknown trace event: {}\n{line}", e.0));
        // Blocks are well-formed: start opens, end closes, nothing leaks
        // outside a block.
        match event {
            TraceEvent::TrialStart { .. } => {
                assert!(!in_block, "nested trial-start");
                in_block = true;
            }
            TraceEvent::TrialEnd { .. } => {
                assert!(in_block, "trial-end without trial-start");
                in_block = false;
            }
            _ => assert!(in_block, "event outside a trial block: {line}"),
        }
        lines += 1;
    }
    assert!(!in_block, "trace ends mid-block");
    assert!(lines > 0, "trace stream is empty");
}

#[test]
fn requeues_are_counted_under_any_overlap_and_zero_otherwise() {
    let registry = Registry::builtin();
    let scenarios = ScenarioGrid::new()
        .algorithms([registry.get("minimum").expect("builtin")])
        .topologies([ring()])
        .envs([partition()])
        .modes([
            ExecutionMode::asynchronous(),
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtSend),
            ExecutionMode::asynchronous_with(DeliveryRule::AnyOverlap { grace: 6 }),
        ])
        .sizes([8])
        .trials(4)
        .max_rounds(20_000)
        .expand();
    let collected = Campaign::new(scenarios).seed(7).run_collect();

    let mut any_overlap_requeues = 0usize;
    for record in &collected.records {
        if record.mode.contains("any-overlap") {
            any_overlap_requeues += record.messages_requeued;
        } else {
            assert_eq!(
                record.messages_requeued, 0,
                "{}: requeues must be structurally zero under {}",
                record.scenario, record.mode
            );
            // And the column stays *absent* from requeue-free lines, so
            // pre-observability streams remain byte-identical.
            let line = record.to_jsonl_line().expect("serialize");
            assert!(
                !String::from_utf8(line)
                    .expect("utf8")
                    .contains("messages_requeued"),
                "requeue-free record must omit the messages_requeued field"
            );
        }
    }
    assert!(
        any_overlap_requeues > 0,
        "any-overlap over a periodic partition must requeue at least once"
    );

    // The aggregated summary exposes the same column.
    let overlap_summary = collected
        .summaries
        .iter()
        .find(|s| s.mode.contains("any-overlap"))
        .expect("any-overlap cell summarised");
    assert!(overlap_summary.messages_requeued.mean > 0.0);
}
