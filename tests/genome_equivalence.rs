//! Differential fuzzing of the two synchronous runtimes: over random label
//! genomes — any builtin algorithm, topology family and environment family,
//! a size, a cooldown and a seed — the event-driven runtime's record equals
//! the round-based runtime's once the mode coordinate and the event
//! runtime's own columns are cleared.
//!
//! `crates/campaign/tests/event_equivalence.rs` pins the same law on a
//! fixed grid of static cells; this property covers every builtin family,
//! fragmenting environments included.

use proptest::prelude::*;
use selfsim_campaign::{
    run_trial, EnvRegistry, ExecutionMode, Registry, Scenario, TopologyRegistry, TrialRecord,
};

/// The family at `index` of a registry's sorted family list.
fn family(families: &[String], index: usize) -> &str {
    families
        .get(index)
        .expect("index drawn below the family count")
}

/// The record with the columns that name or count the event runtime's
/// own work cleared.
fn normalised(mut record: TrialRecord) -> TrialRecord {
    record.scenario.clear();
    record.mode.clear();
    record.events_processed = 0;
    record.peak_queue_depth = 0;
    record
}

proptest! {
    #[test]
    fn event_records_equal_sync_records_on_random_genomes(
        genome in (
            0..Registry::builtin_ref().len(),
            0..TopologyRegistry::builtin_ref().len(),
            0..EnvRegistry::builtin_ref().len(),
        ),
        n in 3usize..=9,
        cooldown in 0usize..=8,
        seed in 0u64..=u64::MAX,
    ) {
        let (algorithm, topology, env) = genome;
        let algorithms = Registry::builtin_ref();
        let topologies = TopologyRegistry::builtin_ref();
        let envs = EnvRegistry::builtin_ref();
        let cell = |mode| {
            Scenario::builder(
                algorithms
                    .resolve(family(&algorithms.families(), algorithm))
                    .expect("builtin algorithm"),
            )
            .topology(
                topologies
                    .resolve(family(&topologies.families(), topology))
                    .expect("builtin topology"),
            )
            .env(envs.resolve(family(&envs.families(), env)).expect("builtin env"))
            .mode(mode)
            .agents(n)
            .max_rounds(2_000)
            .build()
        };
        let sync = cell(ExecutionMode::Sync { cooldown });
        let event = cell(ExecutionMode::Event { cooldown });
        let sync_record = normalised(run_trial(&sync, 0, seed));
        let event_record = normalised(run_trial(&event, 0, seed));
        prop_assert!(
            event_record == sync_record,
            "{} (seed {seed}):\n event: {event_record:?}\n  sync: {sync_record:?}",
            sync.name()
        );
    }
}
