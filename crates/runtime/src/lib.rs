//! Simulators that execute self-similar algorithms under dynamic environments.
//!
//! The transition system of Chandy & Charpentier (ICDCS 2007) alternates
//! environment transitions (arbitrary) with agent transitions (every group
//! of a partition takes one collaborative step).  Every execution of it
//! runs on one tick loop, [`Driver`]: each tick it folds the environment
//! transition ([`selfsim_env::Environment::step_delta`]) into one
//! [`selfsim_env::Connectivity`] and hands the tick to the execution's
//! body as a [`Tick`].  The driver owns the seeded RNG and judges
//! convergence, cooldown included, the same way for every body.
//!
//! [`ExecutionMode`] names the body and its knobs, and
//! [`ExecutionMode::run`] (or [`ExecutionMode::run_with`], with an event
//! log and an observer) is the one way to run a system, so experiment
//! drivers sweep the *execution model* as just another scenario
//! dimension:
//!
//! * **Rounds** — [`ExecutionMode::Sync`] and [`ExecutionMode::Event`] run
//!   one shared round body: every group of the induced partition (connected
//!   components of the enabled subgraph) executes one step of the
//!   algorithm's group relation `R`, in partition order.  Groups proven to
//!   be randomness-free fixpoints are not stepped again until connectivity
//!   changes, so idle agents cost nothing and million-agent systems stay
//!   tractable.  This is the semantics used for all correctness claims and
//!   most experiments.  The two modes differ only in the record columns
//!   they fill: event runs prefix the environment with `event/` and report
//!   the round's work as events processed and peak queue depth.
//! * **Messages** — [`ExecutionMode::Async`] is a discrete-event,
//!   message-passing realisation in the spirit of the remark at the end of
//!   §4.5: agents interact pairwise when a (possibly delayed, possibly
//!   dropped) message sent over a usable edge is delivered, rather than in
//!   lockstep rounds.  Group steps are still steps of `R` restricted to the
//!   two endpoints, so all invariants carry over; what changes is *when*
//!   interactions happen — and the [`DeliveryRule`] decides what happens to
//!   a message whose edge is down when it comes due, which over
//!   environments with connectivity windows shorter than the message
//!   latency decides convergence itself (see the `delivery` module docs and
//!   experiment E14).
//! * **Baselines** — the snapshot and flooding baselines
//!   (`selfsim-baselines`), which stop at their target (cooldown 0).
//!
//! Every message-passing execution — async mode and the async runs of the
//! snapshot and flooding baselines — goes through one message layer:
//! [`AsyncKnobs`] holds the interaction rate, latency, loss and delivery
//! rule (valid by construction), [`AsyncKnobs::send`] rolls the drop and
//! draws the latency of one message, and [`AsyncKnobs::settle`] applies the
//! delivery rule to a message that has come due.  Both steps emit the
//! message lifecycle as [`selfsim_trace::TraceEvent`]s.
//!
//! Every run is deterministic given a seed, records
//! [`selfsim_trace::RunMetrics`], and detects convergence (the state
//! reaching — and then staying at — the target `f(S(0))`).  A run keeps no
//! history: [`ExecutionMode::run_with`] emits the structured event stream
//! into a caller's [`selfsim_trace::EventLog`] and hands every executed
//! round or tick to a caller's observer as a [`Round`] (its state multiset
//! and, on request, its environment state).  That is where audits of an
//! execution — the conservation law, `□◇Q`, LTL specs — attach, recording
//! only what they check.
//!
//! [`SyncSimulator`] and [`EventSimulator`] are shims over the sync and
//! event modes for the repository benchmark, which still calls them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_sim;
mod delivery;
mod drive;
mod event;
mod mode;
mod report;
mod round;
mod sync;

pub use delivery::{AsyncKnobs, DeliveryDecision, DeliveryRule, Message, DEFAULT_GRACE};
pub use drive::{Driver, Tick};
pub use event::{EventConfig, EventSimulator};
pub use mode::ExecutionMode;
pub use report::SimulationReport;
pub use round::Round;
pub use sync::{SyncConfig, SyncSimulator};
