//! Golden guard for the round-mode tick loop: the self-similar round
//! runtimes and the round-mode runs of both baselines (snapshot, flooding)
//! over fragmenting environments, in sync and event mode with a cooldown —
//! the cells where the environment transition, the group steps and the
//! convergence bookkeeping (`convergence-entered`, the cooldown's extra
//! rounds) all show in the records and the event stream.  The streamed
//! records and the `--trace` event stream must stay byte-identical to the
//! committed fixtures.
//!
//! The records are committed verbatim; the trace is committed as its
//! length, line count and FNV-1a digest.  The fixtures were captured with
//! `BLESS_ROUND_FIXTURE=1`.  Re-bless only when a record- or trace-schema
//! change is intentional.

use std::path::PathBuf;

use selfsim_campaign::{
    AlgorithmRef, Campaign, EnvRegistry, ExecutionMode, Registry, ScenarioGrid, TopologyRegistry,
    TrialRecord,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Two self-similar algorithms and both baselines × two fragmenting
/// environments × sync and event mode with a four-round cooldown.
fn round_campaign() -> Campaign {
    let registry = Registry::builtin();
    let algorithms: Vec<AlgorithmRef> =
        ["minimum", "circumscribing-circle", "flooding", "snapshot"]
            .iter()
            .map(|name| registry.resolve(name).expect("builtin algorithm"))
            .collect();
    let modes =
        ["sync(cd=4)", "event(cd=4)"].map(|label| ExecutionMode::parse_label(label).expect("mode"));
    let scenarios = ScenarioGrid::new()
        .algorithms(algorithms)
        .topologies([TopologyRegistry::builtin_ref()
            .resolve("ring")
            .expect("builtin label")])
        .envs(["partition(b=2,t=8)", "churn(e=0.3,a=0.8)"].map(|label| {
            EnvRegistry::builtin_ref()
                .resolve(label)
                .expect("builtin label")
        }))
        .modes(modes)
        .sizes([6])
        .trials(2)
        // Caps the per-round event stream of cells that never converge.
        .max_rounds(200)
        .expand();
    Campaign::new(scenarios).seed(17).threads(2)
}

fn stream() -> (Vec<u8>, Vec<u8>) {
    let mut records = Vec::new();
    let mut trace = Vec::new();
    round_campaign()
        .stream(Some(&mut records), Some(&mut trace), |_, _| {})
        .expect("traced stream to memory");
    (records, trace)
}

fn check_against_fixture(name: &str, streamed: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_ROUND_FIXTURE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, streamed).expect("write fixture");
        return;
    }
    let expected = std::fs::read(&path).expect(
        "fixture missing — run once with BLESS_ROUND_FIXTURE=1 against a \
         known-good tree to regenerate",
    );
    assert!(
        streamed == expected.as_slice(),
        "{name} diverged from the fixture ({} bytes now vs {} bytes blessed)",
        streamed.len(),
        expected.len()
    );
}

/// A one-line fingerprint of a byte stream: its length, its line count
/// and its 64-bit FNV-1a hash.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let lines = bytes.iter().filter(|&&byte| byte == b'\n').count();
    format!("bytes={} lines={lines} fnv1a64={hash:016x}\n", bytes.len())
}

#[test]
fn round_loops_match_the_golden_records_and_trace() {
    let (records, trace) = stream();
    check_against_fixture("round_records.jsonl", &records);
    check_against_fixture("round_trace.digest", digest(&trace).as_bytes());
}

#[test]
fn every_round_loop_converges_and_the_cooldown_shows_in_the_fixture() {
    let (records, trace) = stream();
    let records: Vec<TrialRecord> = String::from_utf8(records)
        .expect("records are utf8")
        .lines()
        .map(|line| serde_json::from_str(line).expect("record line parses"))
        .collect();
    // The circle needs more than the 200-round cap over these fragmenting
    // environments; its cells pin the budget-exhaustion path instead.
    for algorithm in ["minimum", "flooding", "snapshot"] {
        let cells: Vec<&TrialRecord> = records
            .iter()
            .filter(|r| r.algorithm == algorithm)
            .collect();
        assert!(
            cells.iter().any(|r| r.rounds_to_convergence.is_some()),
            "{algorithm}: no cell converged"
        );
    }
    // The self-similar cells run their cooldown: four rounds past
    // convergence.  The baselines terminate at convergence.
    for record in &records {
        let Some(converged_at) = record.rounds_to_convergence else {
            continue;
        };
        let cooldown = match record.algorithm.as_str() {
            "flooding" | "snapshot" => 0,
            _ => 4,
        };
        assert_eq!(
            record.rounds_executed,
            converged_at + cooldown,
            "{}",
            record.algorithm
        );
    }
    // Closure: no cell leaves its target once it has entered it, so the
    // grid emits `convergence-entered` but never `convergence-left`.
    let trace = String::from_utf8(trace).expect("trace is utf8");
    assert!(trace.contains("\"event\":\"convergence-entered\""));
    assert!(!trace.contains("\"event\":\"convergence-left\""));
}
