//! The message layer every message-passing execution shares.
//!
//! The paper (§4.5) notes that the group relation `R` "can be easily
//! implemented by asynchronous message passing".  Three protocols take
//! it at its word: [`AsyncSimulator`] (pairwise rendezvous steps of `R`)
//! and the async runs of the snapshot and flooding baselines.  They differ
//! in what a message carries and in how they queue messages, and share
//! everything else, which lives here:
//!
//! * [`AsyncKnobs`] — the interaction rate, maximum latency, drop rate and
//!   delivery rule, valid by construction;
//! * [`AsyncKnobs::send`] — the drop roll and latency draw of one message;
//! * [`AsyncKnobs::settle`] — the [`DeliveryRule`]'s verdict on a message
//!   that has come due.
//!
//! The two steps emit the whole message lifecycle as
//! [`TraceEvent`]s; each caller counts messages in its own cost unit.
//!
//! The send side only ever sends over an edge that is usable *at send
//! time*.  What should happen when the edge is no longer usable at the
//! delivery tick is a modelling decision, not a fact — and it decides
//! whether the fairness assumption `□◇Q` survives the translation from
//! rounds to messages.  The historical rule (deliver only if the pair can
//! still communicate at delivery time) silently discards every message
//! whose connectivity window is shorter than its latency, so environments
//! with brief merge windows (e.g. the periodic partition's single-tick
//! merges) stall cross-fragment progress even for algorithms the paper
//! proves convergent under `□◇Q`.  [`DeliveryRule`] makes the choice
//! explicit and sweepable, and [`AsyncKnobs::settle`] applies it to every
//! protocol alike, so cross-runtime comparisons stay apples-to-apples.
//!
//! [`AsyncSimulator`]: crate::AsyncSimulator

use rand::Rng;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

/// The knobs of a message-passing run, shared by [`AsyncSimulator`], the
/// baselines' async runs and [`ExecutionMode::Async`].
///
/// The only constructors are [`AsyncKnobs::new`], which rejects invalid
/// values, and the valid [`Default`], so every value of this type is
/// valid and the runs that take one have no failure path on it.
///
/// [`AsyncSimulator`]: crate::AsyncSimulator
/// [`ExecutionMode::Async`]: crate::ExecutionMode::Async
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsyncKnobs {
    /// Probability that a usable edge (or the snapshot coordinator)
    /// initiates an interaction at a tick.
    pub(crate) interaction_rate: f64,
    /// Message latency is drawn uniformly from `1..=max_latency` ticks.
    pub(crate) max_latency: usize,
    /// Probability that a sent message is lost in flight.
    pub(crate) drop_rate: f64,
    /// What happens to a message whose connectivity condition fails when
    /// it comes due.
    pub(crate) delivery: DeliveryRule,
}

impl Default for AsyncKnobs {
    /// Interaction rate 0.5, latency `1..=3`, no loss, the historical
    /// delivery rule — the bare `async` mode.
    fn default() -> Self {
        AsyncKnobs {
            interaction_rate: 0.5,
            max_latency: 3,
            drop_rate: 0.0,
            delivery: DeliveryRule::default(),
        }
    }
}

impl AsyncKnobs {
    /// Validates the knobs, naming the offending field in the error:
    /// `max_latency` must be at least one tick (latency is drawn from
    /// `1..=max_latency`) and the two rates must be probabilities.
    pub fn new(
        interaction_rate: f64,
        max_latency: usize,
        drop_rate: f64,
        delivery: DeliveryRule,
    ) -> Result<Self, String> {
        if max_latency == 0 {
            return Err(
                "max_latency must be at least 1 (message latency is drawn from 1..=max_latency)"
                    .into(),
            );
        }
        for (name, value) in [
            ("interaction_rate", interaction_rate),
            ("drop_rate", drop_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "{name} must be a probability in [0, 1], got {value}"
                ));
            }
        }
        Ok(AsyncKnobs {
            interaction_rate,
            max_latency,
            drop_rate,
            delivery,
        })
    }

    /// The same knobs with another delivery rule.
    pub fn with_delivery(self, delivery: DeliveryRule) -> Self {
        AsyncKnobs { delivery, ..self }
    }

    /// Rolls whether an interaction is initiated this tick.
    pub fn initiates<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen_bool(self.interaction_rate)
    }

    /// The send step of a message from agent `from` to agent `to` at
    /// `tick`: a lost message emits `MessageDropped` and returns `None`;
    /// otherwise the latency is drawn, `MessageSent` is emitted and the
    /// message is returned with its due and expiry ticks.
    pub fn send<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        tick: usize,
        from: usize,
        to: usize,
        events: &mut EventLog,
    ) -> Option<Message> {
        if rng.gen_bool(self.drop_rate) {
            events.emit(|| TraceEvent::MessageDropped {
                tick: tick as u64,
                from,
                to,
            });
            return None;
        }
        let deliver_at = tick + rng.gen_range(1..=self.max_latency);
        events.emit(|| TraceEvent::MessageSent {
            tick: tick as u64,
            from,
            to,
            deliver_at: deliver_at as u64,
        });
        Some(Message {
            from,
            to,
            deliver_at,
            expires_at: self.delivery.expiry(deliver_at),
        })
    }

    /// The settle step of a message that is due at `tick`: the delivery
    /// rule [decides](DeliveryRule::decide) its fate from whether its
    /// connectivity condition holds now (`usable_now`) and held when it
    /// was sent (`usable_at_send`), and the fate is emitted as
    /// `MessageDiscarded`, `MessageRequeued` or `MessageDelivered`.  A
    /// re-queued message is counted in `messages_requeued` and becomes due
    /// at the next tick; the caller puts it back in its queue.
    pub fn settle(
        &self,
        message: &mut Message,
        tick: usize,
        usable_now: bool,
        usable_at_send: bool,
        metrics: &mut RunMetrics,
        events: &mut EventLog,
    ) -> DeliveryDecision {
        let decision = self
            .delivery
            .decide(usable_now, usable_at_send, tick, message.expires_at);
        if decision == DeliveryDecision::Requeue {
            metrics.messages_requeued += 1;
            message.deliver_at = tick + 1;
        }
        let (tick, from, to) = (tick as u64, message.from, message.to);
        events.emit(|| match decision {
            DeliveryDecision::Discard => TraceEvent::MessageDiscarded { tick, from, to },
            DeliveryDecision::Requeue => TraceEvent::MessageRequeued { tick, from, to },
            DeliveryDecision::Deliver => TraceEvent::MessageDelivered { tick, from, to },
        });
        decision
    }
}

/// A message in flight from one agent to another, as
/// [`AsyncKnobs::send`] returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// The sending agent.
    pub from: usize,
    /// The receiving agent.
    pub to: usize,
    /// The tick at which the message comes due.
    pub deliver_at: usize,
    /// The last tick at which delivery may still happen
    /// ([`DeliveryRule::expiry`] of the original due tick).
    pub expires_at: usize,
}

/// When a due message may trigger its interaction.
///
/// All rules share the send side: a message is only ever *sent* over an
/// edge that is usable at the send tick.  They differ in the condition
/// checked when the message comes due.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeliveryRule {
    /// Deliver only if the edge is still usable at the delivery tick;
    /// otherwise the message is silently discarded.  This is the
    /// historical (and strictest) rule: it under-approximates `□◇Q` when
    /// connectivity windows are shorter than message latency.
    #[default]
    ValidAtDelivery,
    /// Deliver unconditionally: the edge was usable when the message was
    /// sent, and that is taken as the agreement to interact.  This is the
    /// direct message-passing reading of §4.5's "easily implemented by
    /// asynchronous message passing": every sent (non-dropped) message
    /// yields an interaction.
    ValidAtSend,
    /// Window-aware: deliver at the *first* tick in
    /// `[due, due + grace]` at which the edge is usable, re-queueing the
    /// message tick by tick instead of discarding it; a message whose
    /// window closes without the edge coming up expires.  With
    /// `grace = 0` this degenerates to [`DeliveryRule::ValidAtDelivery`].
    AnyOverlap {
        /// Extra ticks past the due tick during which delivery may still
        /// happen.
        grace: usize,
    },
}

/// The default grace window of the bare `any-overlap` label: generous
/// enough to span the merge period of the stock partition environments
/// (`partition(b,t=8)`) with the default latency.
pub const DEFAULT_GRACE: usize = 16;

/// What to do with one due message (see [`DeliveryRule::decide`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryDecision {
    /// Trigger the interaction now.
    Deliver,
    /// Drop the message for good.
    Discard,
    /// Keep the message queued and retry at the next tick.
    Requeue,
}

impl DeliveryRule {
    /// The window-aware rule with the default grace.
    pub fn any_overlap() -> Self {
        DeliveryRule::AnyOverlap {
            grace: DEFAULT_GRACE,
        }
    }

    /// All three rules, each in its default parameterisation — the
    /// standard delivery-semantics sweep (experiment E14, the CI
    /// shard-equivalence legs).
    pub fn all() -> [DeliveryRule; 3] {
        [
            DeliveryRule::ValidAtDelivery,
            DeliveryRule::ValidAtSend,
            DeliveryRule::any_overlap(),
        ]
    }

    /// Short stable label used in mode labels, scenario names and report
    /// columns.
    pub fn label(&self) -> String {
        match *self {
            DeliveryRule::ValidAtDelivery => "valid-at-delivery".into(),
            DeliveryRule::ValidAtSend => "valid-at-send".into(),
            DeliveryRule::AnyOverlap { grace } => format!("any-overlap(g={grace})"),
        }
    }

    /// Parses a label — the bare rule names (`any-overlap` takes the
    /// default grace) and the parameterised `any-overlap(g=N)` form
    /// produced by [`DeliveryRule::label`] — through the shared
    /// `name(k=v)` grammar ([`selfsim_env::params`]), with named-field
    /// errors for malformed or out-of-place parameters, which the CLI and
    /// the mode parser surface.
    pub fn parse_label(s: &str) -> Result<Self, String> {
        let (name, mut params) = selfsim_env::parse_label(s)?;
        let rule = match name {
            "valid-at-delivery" => DeliveryRule::ValidAtDelivery,
            "valid-at-send" => DeliveryRule::ValidAtSend,
            "any-overlap" => DeliveryRule::AnyOverlap {
                grace: params.take::<usize>("g")?.unwrap_or(DEFAULT_GRACE),
            },
            other => {
                return Err(format!(
                    "unknown delivery rule `{other}` (expected valid-at-delivery|\
                     valid-at-send|any-overlap|any-overlap(g=N))"
                ))
            }
        };
        let known: &[&str] = match rule {
            DeliveryRule::AnyOverlap { .. } => &["g"],
            _ => &[],
        };
        params.finish(known)?;
        Ok(rule)
    }

    /// The last tick at which a message due at `due` may still be
    /// delivered.
    pub fn expiry(&self, due: usize) -> usize {
        match *self {
            DeliveryRule::AnyOverlap { grace } => due.saturating_add(grace),
            _ => due,
        }
    }

    /// Decides the fate of a message that is due at tick `now`.
    ///
    /// `usable_now` is whether the message's connectivity condition (the
    /// edge for pairwise rendezvous, full reachability for snapshot
    /// probes) holds at `now`; `usable_at_send` is the same condition
    /// evaluated when the message was sent; `expires_at` is
    /// [`DeliveryRule::expiry`] of the original due tick.
    pub fn decide(
        &self,
        usable_now: bool,
        usable_at_send: bool,
        now: usize,
        expires_at: usize,
    ) -> DeliveryDecision {
        match *self {
            DeliveryRule::ValidAtDelivery => {
                if usable_now {
                    DeliveryDecision::Deliver
                } else {
                    DeliveryDecision::Discard
                }
            }
            DeliveryRule::ValidAtSend => {
                if usable_at_send {
                    DeliveryDecision::Deliver
                } else {
                    DeliveryDecision::Discard
                }
            }
            DeliveryRule::AnyOverlap { .. } => {
                if usable_now {
                    DeliveryDecision::Deliver
                } else if now < expires_at {
                    DeliveryDecision::Requeue
                } else {
                    DeliveryDecision::Discard
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn labels_parse_back() {
        for rule in DeliveryRule::all() {
            assert_eq!(DeliveryRule::parse_label(&rule.label()), Ok(rule));
        }
        assert_eq!(
            DeliveryRule::parse_label("any-overlap"),
            Ok(DeliveryRule::AnyOverlap {
                grace: DEFAULT_GRACE
            })
        );
        assert_eq!(
            DeliveryRule::parse_label("any-overlap(g=3)"),
            Ok(DeliveryRule::AnyOverlap { grace: 3 })
        );
    }

    #[test]
    fn parse_label_names_the_failure() {
        let err = DeliveryRule::parse_label("nonsense").unwrap_err();
        assert!(err.contains("unknown delivery rule `nonsense`"), "{err}");
        let err = DeliveryRule::parse_label("any-overlap(g=x)").unwrap_err();
        assert!(err.contains("`g`"), "{err}");
        let err = DeliveryRule::parse_label("any-overlap(q=3)").unwrap_err();
        assert!(err.contains("unknown parameter q"), "{err}");
        let err = DeliveryRule::parse_label("valid-at-send(g=3)").unwrap_err();
        assert!(err.contains("unknown parameter g"), "{err}");
    }

    #[test]
    fn invalid_knobs_are_rejected_naming_the_field() {
        let knobs = |i, l, d| AsyncKnobs::new(i, l, d, DeliveryRule::default());
        assert!(knobs(1.5, 3, 0.0).unwrap_err().contains("interaction_rate"));
        assert!(knobs(0.5, 3, -0.1).unwrap_err().contains("drop_rate"));
        assert!(knobs(f64::NAN, 3, 0.0)
            .unwrap_err()
            .contains("interaction_rate"));
        assert_eq!(knobs(0.5, 3, 0.0), Ok(AsyncKnobs::default()));
    }

    #[test]
    fn zero_latency_is_rejected_instead_of_clamped() {
        let err = AsyncKnobs::new(0.5, 0, 0.0, DeliveryRule::default()).unwrap_err();
        assert!(err.starts_with("max_latency must be at least 1"), "{err}");
    }

    #[test]
    fn send_and_settle_emit_the_message_lifecycle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut events = EventLog::enabled();
        let mut metrics = RunMetrics::new("test", "static", 2);
        let lossy = AsyncKnobs::new(0.5, 1, 1.0, DeliveryRule::default()).expect("valid");
        assert_eq!(lossy.send(&mut rng, 4, 0, 1, &mut events), None);
        let knobs = AsyncKnobs::default().with_delivery(DeliveryRule::AnyOverlap { grace: 1 });
        let mut message = knobs
            .send(&mut rng, 4, 1, 0, &mut events)
            .expect("lossless send");
        assert!((5..=7).contains(&message.deliver_at));
        assert_eq!(message.expires_at, message.deliver_at + 1);
        let due = message.deliver_at;
        let blocked = knobs.settle(&mut message, due, false, true, &mut metrics, &mut events);
        assert_eq!(blocked, DeliveryDecision::Requeue);
        assert_eq!(message.deliver_at, due + 1);
        assert_eq!(metrics.messages_requeued, 1);
        let up = knobs.settle(&mut message, due + 1, true, true, &mut metrics, &mut events);
        assert_eq!(up, DeliveryDecision::Deliver);
        assert_eq!(
            events.into_events(),
            vec![
                TraceEvent::MessageDropped {
                    tick: 4,
                    from: 0,
                    to: 1
                },
                TraceEvent::MessageSent {
                    tick: 4,
                    from: 1,
                    to: 0,
                    deliver_at: due as u64
                },
                TraceEvent::MessageRequeued {
                    tick: due as u64,
                    from: 1,
                    to: 0
                },
                TraceEvent::MessageDelivered {
                    tick: due as u64 + 1,
                    from: 1,
                    to: 0
                },
            ]
        );
    }

    #[test]
    fn default_is_the_historical_rule() {
        assert_eq!(DeliveryRule::default(), DeliveryRule::ValidAtDelivery);
    }

    #[test]
    fn valid_at_delivery_checks_now() {
        let rule = DeliveryRule::ValidAtDelivery;
        assert_eq!(rule.decide(true, false, 5, 5), DeliveryDecision::Deliver);
        assert_eq!(rule.decide(false, true, 5, 5), DeliveryDecision::Discard);
    }

    #[test]
    fn valid_at_send_checks_the_send_tick() {
        let rule = DeliveryRule::ValidAtSend;
        assert_eq!(rule.decide(false, true, 5, 5), DeliveryDecision::Deliver);
        assert_eq!(rule.decide(true, false, 5, 5), DeliveryDecision::Discard);
    }

    #[test]
    fn any_overlap_requeues_until_the_window_closes() {
        let rule = DeliveryRule::AnyOverlap { grace: 2 };
        let expires = rule.expiry(5);
        assert_eq!(expires, 7);
        assert_eq!(
            rule.decide(true, true, 5, expires),
            DeliveryDecision::Deliver
        );
        assert_eq!(
            rule.decide(false, true, 5, expires),
            DeliveryDecision::Requeue
        );
        assert_eq!(
            rule.decide(false, true, 6, expires),
            DeliveryDecision::Requeue
        );
        assert_eq!(
            rule.decide(true, true, 7, expires),
            DeliveryDecision::Deliver
        );
        assert_eq!(
            rule.decide(false, true, 7, expires),
            DeliveryDecision::Discard
        );
    }

    #[test]
    fn zero_grace_degenerates_to_valid_at_delivery() {
        let rule = DeliveryRule::AnyOverlap { grace: 0 };
        for (usable_now, usable_at_send) in [(true, true), (true, false), (false, true)] {
            assert_eq!(
                rule.decide(usable_now, usable_at_send, 5, rule.expiry(5)),
                DeliveryRule::ValidAtDelivery.decide(usable_now, usable_at_send, 5, 5),
            );
        }
    }
}
