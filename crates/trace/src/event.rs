//! Structured per-trial trace events.
//!
//! A traced run emits a deterministic sequence of [`TraceEvent`]s: every
//! environment transition, group step, message lifecycle decision and
//! convergence change, framed by trial start/end markers that carry the
//! full replay coordinates (round-trippable labels plus the derived
//! seed).  The events are plain data — ordering, framing and shard
//! merging are the campaign runner's job — and [`TraceEvent::write_jsonl`]
//! writes each as one JSON line, whose first field is the `event` tag,
//! through [`crate::json`], the one JSONL writer.  Traces are
//! write-only: nothing parses an event back, and the shard merge's order
//! check reads just the `event`, `scenario` and `trial` fields of a
//! block's opening line.
//!
//! Recording goes through [`EventLog`], whose disabled form is a single
//! branch per would-be event: the closure handed to [`EventLog::emit`] is
//! never run and nothing allocates, which is what keeps the trace layer
//! zero-cost when off.

use crate::json::JsonLine;

/// One observable step of a traced trial.
///
/// Tick fields count the simulator's own clock: rounds for the
/// synchronous runtime, ticks for the asynchronous one.  Message events
/// name the edge endpoints by agent index.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// The trial frame opens: every coordinate needed to replay the trial
    /// (labels round-trip through the registry parsers, `seed` is the
    /// derived per-trial seed).
    TrialStart {
        /// Full scenario name.
        scenario: String,
        /// Algorithm label.
        algorithm: String,
        /// Topology label.
        topology: String,
        /// Environment label.
        environment: String,
        /// Execution-mode label.
        mode: String,
        /// Delivery-rule label (`-` for sync).
        delivery: String,
        /// Number of agents.
        agents: usize,
        /// Trial index within the scenario.
        trial: u64,
        /// The derived per-trial seed.
        seed: u64,
    },
    /// The environment stepped; `edges` counts the currently usable
    /// communication edges.
    EnvTransition {
        /// Simulator clock after the step.
        tick: u64,
        /// Usable edges in the new environment state.
        edges: usize,
    },
    /// A group transition was attempted.
    GroupStep {
        /// Simulator clock.
        tick: u64,
        /// Number of agents in the group.
        size: usize,
        /// Whether the step changed any agent's state.
        changed: bool,
    },
    /// A message entered flight.
    MessageSent {
        /// Send tick.
        tick: u64,
        /// Initiating agent.
        from: usize,
        /// Responding agent.
        to: usize,
        /// Tick the message comes due.
        deliver_at: u64,
    },
    /// An in-flight message was lost to the drop roll.
    MessageDropped {
        /// Send tick (the loss is decided at send).
        tick: u64,
        /// Initiating agent.
        from: usize,
        /// Responding agent.
        to: usize,
    },
    /// A due message was delivered and drove a group step.
    MessageDelivered {
        /// Delivery tick.
        tick: u64,
        /// Initiating agent.
        from: usize,
        /// Responding agent.
        to: usize,
    },
    /// A due message was discarded by the delivery rule.
    MessageDiscarded {
        /// The tick the message came due.
        tick: u64,
        /// Initiating agent.
        from: usize,
        /// Responding agent.
        to: usize,
    },
    /// A due but blocked message was re-queued by the delivery rule
    /// (`any-overlap` within its grace window).
    MessageRequeued {
        /// The tick the message came due.
        tick: u64,
        /// Initiating agent.
        from: usize,
        /// Responding agent.
        to: usize,
    },
    /// The system first reached (or re-entered) the target state.
    ConvergenceEntered {
        /// Simulator clock.
        tick: u64,
    },
    /// The system left the target state again (churn undid convergence
    /// before the cooldown audit finished).
    ConvergenceLeft {
        /// Simulator clock.
        tick: u64,
    },
    /// The trial frame closes.
    TrialEnd {
        /// Trial index, repeated for self-contained frames.
        trial: u64,
        /// Whether the trial converged within its budget.
        converged: bool,
        /// Final simulator clock value.
        ticks: u64,
    },
}

impl TraceEvent {
    /// The stable `event` tag this variant serializes under.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::TrialStart { .. } => "trial-start",
            TraceEvent::EnvTransition { .. } => "env-transition",
            TraceEvent::GroupStep { .. } => "group-step",
            TraceEvent::MessageSent { .. } => "message-sent",
            TraceEvent::MessageDropped { .. } => "message-dropped",
            TraceEvent::MessageDelivered { .. } => "message-delivered",
            TraceEvent::MessageDiscarded { .. } => "message-discarded",
            TraceEvent::MessageRequeued { .. } => "message-requeued",
            TraceEvent::ConvergenceEntered { .. } => "convergence-entered",
            TraceEvent::ConvergenceLeft { .. } => "convergence-left",
            TraceEvent::TrialEnd { .. } => "trial-end",
        }
    }

    /// Appends the event's JSONL form to `out`: one object whose first
    /// field is the `event` tag, then the variant's fields in declaration
    /// order, plus the line terminator.  Written by the one JSONL writer,
    /// [`crate::json::JsonLine`].
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        let mut line = JsonLine::new(out);
        line.str("event", self.tag());
        match self {
            TraceEvent::TrialStart {
                scenario,
                algorithm,
                topology,
                environment,
                mode,
                delivery,
                agents,
                trial,
                seed,
            } => {
                line.str("scenario", scenario);
                line.str("algorithm", algorithm);
                line.str("topology", topology);
                line.str("environment", environment);
                line.str("mode", mode);
                line.str("delivery", delivery);
                line.uint("agents", *agents as u64);
                line.uint("trial", *trial);
                line.uint("seed", *seed);
            }
            TraceEvent::EnvTransition { tick, edges } => {
                line.uint("tick", *tick);
                line.uint("edges", *edges as u64);
            }
            TraceEvent::GroupStep {
                tick,
                size,
                changed,
            } => {
                line.uint("tick", *tick);
                line.uint("size", *size as u64);
                line.bool("changed", *changed);
            }
            TraceEvent::MessageSent {
                tick,
                from,
                to,
                deliver_at,
            } => {
                line.uint("tick", *tick);
                line.uint("from", *from as u64);
                line.uint("to", *to as u64);
                line.uint("deliver_at", *deliver_at);
            }
            TraceEvent::MessageDropped { tick, from, to }
            | TraceEvent::MessageDelivered { tick, from, to }
            | TraceEvent::MessageDiscarded { tick, from, to }
            | TraceEvent::MessageRequeued { tick, from, to } => {
                line.uint("tick", *tick);
                line.uint("from", *from as u64);
                line.uint("to", *to as u64);
            }
            TraceEvent::ConvergenceEntered { tick } | TraceEvent::ConvergenceLeft { tick } => {
                line.uint("tick", *tick);
            }
            TraceEvent::TrialEnd {
                trial,
                converged,
                ticks,
            } => {
                line.uint("trial", *trial);
                line.bool("converged", *converged);
                line.uint("ticks", *ticks);
            }
        }
        line.end();
    }
}

/// A recorder that is a no-op unless explicitly enabled.
///
/// Simulators and baselines thread an `&mut EventLog` through their hot
/// loops; when disabled, [`EventLog::emit`] is one branch — the
/// event-constructing closure never runs and nothing allocates.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Option<Vec<TraceEvent>>,
}

impl EventLog {
    /// A recorder that drops everything at zero cost (the default).
    pub fn disabled() -> Self {
        EventLog { events: None }
    }

    /// A recorder that keeps every emitted event in order.
    pub fn enabled() -> Self {
        EventLog {
            events: Some(Vec::new()),
        }
    }

    /// Records the event `make` builds — but only when enabled; the
    /// closure is never evaluated on the off path.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(make());
        }
    }

    /// Consumes the log, returning the recorded events (empty when
    /// disabled).
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde::{Serialize, Value};

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TrialStart {
                scenario: "minimum/ring/static/n=6/sync".into(),
                algorithm: "minimum".into(),
                topology: "ring".into(),
                environment: "static".into(),
                mode: "sync".into(),
                delivery: "-".into(),
                agents: 6,
                trial: 2,
                seed: 0xDEAD_BEEF,
            },
            TraceEvent::EnvTransition { tick: 1, edges: 6 },
            TraceEvent::GroupStep {
                tick: 1,
                size: 3,
                changed: true,
            },
            TraceEvent::MessageSent {
                tick: 4,
                from: 0,
                to: 5,
                deliver_at: 6,
            },
            TraceEvent::MessageDropped {
                tick: 4,
                from: 1,
                to: 2,
            },
            TraceEvent::MessageDelivered {
                tick: 6,
                from: 0,
                to: 5,
            },
            TraceEvent::MessageDiscarded {
                tick: 7,
                from: 3,
                to: 4,
            },
            TraceEvent::MessageRequeued {
                tick: 7,
                from: 2,
                to: 3,
            },
            TraceEvent::ConvergenceEntered { tick: 9 },
            TraceEvent::ConvergenceLeft { tick: 11 },
            TraceEvent::TrialEnd {
                trial: 2,
                converged: false,
                ticks: 20,
            },
        ]
    }

    fn line(event: &TraceEvent) -> Vec<u8> {
        let mut out = Vec::new();
        event.write_jsonl(&mut out);
        out
    }

    #[test]
    fn serialized_objects_lead_with_the_event_tag() {
        for event in samples() {
            let line = line(&event);
            let prefix = format!("{{\"event\":\"{}\",", event.tag());
            assert!(line.starts_with(prefix.as_bytes()), "{event:?}");
            assert!(line.ends_with(b"}\n"), "{event:?}");
        }
    }

    /// The event encoder [`TraceEvent::write_jsonl`] replaced: a tagged
    /// `Value` object, `{"event": TAG, ...fields}` with fields in
    /// declaration order, rendered by `serde_json`.  Kept as the writer's
    /// oracle.
    fn oracle(event: &TraceEvent) -> Value {
        let fields: Vec<(&str, Value)> = match event {
            TraceEvent::TrialStart {
                scenario,
                algorithm,
                topology,
                environment,
                mode,
                delivery,
                agents,
                trial,
                seed,
            } => vec![
                ("scenario", scenario.to_value()),
                ("algorithm", algorithm.to_value()),
                ("topology", topology.to_value()),
                ("environment", environment.to_value()),
                ("mode", mode.to_value()),
                ("delivery", delivery.to_value()),
                ("agents", agents.to_value()),
                ("trial", trial.to_value()),
                ("seed", seed.to_value()),
            ],
            TraceEvent::EnvTransition { tick, edges } => {
                vec![("tick", tick.to_value()), ("edges", edges.to_value())]
            }
            TraceEvent::GroupStep {
                tick,
                size,
                changed,
            } => vec![
                ("tick", tick.to_value()),
                ("size", size.to_value()),
                ("changed", changed.to_value()),
            ],
            TraceEvent::MessageSent {
                tick,
                from,
                to,
                deliver_at,
            } => vec![
                ("tick", tick.to_value()),
                ("from", from.to_value()),
                ("to", to.to_value()),
                ("deliver_at", deliver_at.to_value()),
            ],
            TraceEvent::MessageDropped { tick, from, to }
            | TraceEvent::MessageDelivered { tick, from, to }
            | TraceEvent::MessageDiscarded { tick, from, to }
            | TraceEvent::MessageRequeued { tick, from, to } => vec![
                ("tick", tick.to_value()),
                ("from", from.to_value()),
                ("to", to.to_value()),
            ],
            TraceEvent::ConvergenceEntered { tick } | TraceEvent::ConvergenceLeft { tick } => {
                vec![("tick", tick.to_value())]
            }
            TraceEvent::TrialEnd {
                trial,
                converged,
                ticks,
            } => vec![
                ("trial", trial.to_value()),
                ("converged", converged.to_value()),
                ("ticks", ticks.to_value()),
            ],
        };
        let mut entries = vec![("event".to_string(), Value::Str(event.tag().to_string()))];
        entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Object(entries)
    }

    /// A label mixing plain ASCII, every escaped byte class and
    /// multi-byte UTF-8.
    fn random_text(rng: &mut StdRng) -> String {
        const POOL: [char; 18] = [
            'a', 'Z', '7', '/', '(', '=', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}',
            '\u{00}', '\u{1F}', '\u{7F}', 'é', '😀',
        ];
        let len = rng.gen_range(0..12);
        (0..len)
            .map(|_| POOL[rng.gen_range(0..POOL.len())])
            .collect()
    }

    /// A tick or seed: small, `u64::MAX`, or anywhere in `u64`.
    fn random_u64(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..3) {
            0 => rng.gen_range(0..100),
            1 => u64::MAX,
            _ => rng.gen(),
        }
    }

    /// An agent index or count: the vendored `serde` encodes `usize`
    /// through `as i64`, so the oracle only agrees up to `i64::MAX`.
    fn random_usize(rng: &mut StdRng) -> usize {
        match rng.gen_range(0..3) {
            0 => rng.gen_range(0..100),
            1 => i64::MAX as usize,
            _ => rng.gen_range(0..=i64::MAX as usize),
        }
    }

    /// A random event whose variant is picked by `tag_index` (0..11).
    fn random_event(rng: &mut StdRng, tag_index: usize) -> TraceEvent {
        let (tick, from, to) = (random_u64(rng), random_usize(rng), random_usize(rng));
        match tag_index {
            0 => TraceEvent::TrialStart {
                scenario: random_text(rng),
                algorithm: random_text(rng),
                topology: random_text(rng),
                environment: random_text(rng),
                mode: random_text(rng),
                delivery: random_text(rng),
                agents: random_usize(rng),
                trial: random_u64(rng),
                seed: random_u64(rng),
            },
            1 => TraceEvent::EnvTransition {
                tick,
                edges: random_usize(rng),
            },
            2 => TraceEvent::GroupStep {
                tick,
                size: random_usize(rng),
                changed: rng.gen(),
            },
            3 => TraceEvent::MessageSent {
                tick,
                from,
                to,
                deliver_at: random_u64(rng),
            },
            4 => TraceEvent::MessageDropped { tick, from, to },
            5 => TraceEvent::MessageDelivered { tick, from, to },
            6 => TraceEvent::MessageDiscarded { tick, from, to },
            7 => TraceEvent::MessageRequeued { tick, from, to },
            8 => TraceEvent::ConvergenceEntered { tick },
            9 => TraceEvent::ConvergenceLeft { tick },
            _ => TraceEvent::TrialEnd {
                trial: random_u64(rng),
                converged: rng.gen(),
                ticks: random_u64(rng),
            },
        }
    }

    #[test]
    fn direct_writer_matches_the_value_encoder() {
        let mut rng = StdRng::seed_from_u64(0xE7E17);
        let mut tags = std::collections::BTreeSet::new();
        let mut line = Vec::new();
        for case in 0..4_400 {
            let event = random_event(&mut rng, case % 11);
            tags.insert(event.tag());
            line.clear();
            event.write_jsonl(&mut line);
            let expected = serde_json::to_string(&oracle(&event)).expect("oracle renders") + "\n";
            assert_eq!(
                std::str::from_utf8(&line).expect("JSONL is UTF-8"),
                expected,
                "case {case}: {event:?}"
            );
        }
        assert_eq!(tags.len(), 11, "every tag is covered");
    }

    #[test]
    fn disabled_log_records_nothing_and_skips_the_closure() {
        let mut log = EventLog::disabled();
        log.emit(|| panic!("closure must not run when disabled"));
        assert!(log.into_events().is_empty());
    }

    #[test]
    fn enabled_log_keeps_events_in_order() {
        let mut log = EventLog::enabled();
        log.emit(|| TraceEvent::ConvergenceEntered { tick: 1 });
        log.emit(|| TraceEvent::ConvergenceLeft { tick: 2 });
        assert_eq!(
            log.into_events(),
            vec![
                TraceEvent::ConvergenceEntered { tick: 1 },
                TraceEvent::ConvergenceLeft { tick: 2 },
            ]
        );
    }
}
