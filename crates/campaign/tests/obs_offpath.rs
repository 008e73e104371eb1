//! Off-path guard: with observability compiled in but *disabled* (no
//! `--trace`, no metrics registry), the streamed record bytes must stay
//! byte-identical to the fixture captured from the pre-observability
//! binary.
//!
//! The fixture was generated by running this test with
//! `BLESS_OBS_FIXTURE=1` against the tree *before* the observability layer
//! landed, and committed.  Re-bless only when a record-schema change is
//! intentional and the byte-identity contract is consciously re-anchored.

use std::path::PathBuf;

use selfsim_campaign::{
    AlgorithmRef, Campaign, DeliveryRule, EnvRegistry, ExecutionMode, Registry, ScenarioGrid,
    TopologyRegistry,
};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("offpath_records.jsonl")
}

/// A small grid crossing both simulators, both baselines and the two
/// requeue-free delivery rules — every code path the observability layer
/// instruments, none of which may change a single emitted byte while
/// observability is off.
fn guard_campaign() -> Campaign {
    let registry = Registry::builtin();
    let algorithms: Vec<AlgorithmRef> = ["minimum", "set-union", "snapshot", "flooding"]
        .iter()
        .map(|name| registry.resolve(name).expect("builtin algorithm"))
        .collect();
    let scenarios = ScenarioGrid::new()
        .algorithms(algorithms)
        .topologies([TopologyRegistry::builtin_ref()
            .resolve("ring")
            .expect("builtin label")])
        .envs(["static", "partition(b=2,t=8)"].map(|label| {
            EnvRegistry::builtin_ref()
                .resolve(label)
                .expect("builtin label")
        }))
        .modes([
            ExecutionMode::sync(),
            ExecutionMode::asynchronous(),
            ExecutionMode::asynchronous_with(DeliveryRule::ValidAtSend),
        ])
        .sizes([6])
        .trials(2)
        .max_rounds(20_000)
        .expand();
    Campaign::new(scenarios).seed(42).threads(2)
}

#[test]
fn record_stream_matches_pre_observability_fixture() {
    let mut streamed = Vec::new();
    guard_campaign()
        .stream_to(&mut streamed)
        .expect("stream to memory");

    let path = fixture_path();
    if std::env::var_os("BLESS_OBS_FIXTURE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &streamed).expect("write fixture");
        return;
    }

    let expected = std::fs::read(&path).expect(
        "fixture missing — run once with BLESS_OBS_FIXTURE=1 against a \
         known-good tree to regenerate",
    );
    assert!(
        streamed == expected,
        "record stream diverged from the pre-observability fixture \
         ({} bytes now vs {} bytes blessed) — the off path is no longer \
         byte-identical",
        streamed.len(),
        expected.len()
    );
}
