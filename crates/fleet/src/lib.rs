//! Crash-tolerant sharding of the chopin sweep matrix across worker
//! processes.
//!
//! The single-process [`SuiteSupervisor`] already survives panics,
//! hangs, SIGKILL storms and its own death (journal + `--resume`), but
//! it runs the whole benchmarks × collectors × heap-factors matrix on
//! one machine. This crate is the coordination core that scales the
//! same loop horizontally without giving up its central guarantee: the
//! sharded CSV stays **byte-identical** to a sequential run.
//!
//! Pure, transport-free layers (the sockets and processes live in
//! `chopin_harness::fleet`):
//!
//! * [`protocol`] — the line-framed coordinator⇄worker wire format,
//!   extending the sandbox heartbeat pipe's escaping discipline with
//!   field-level space folding so a torn line from a dying worker
//!   corrupts at most itself and any payload survives any field.
//! * [`coordinator`] — every coordinator decision behind one
//!   `step(input, now) -> outputs` machine and a pure `next_wake`:
//!   admission, the epoch fence, the heartbeat reaper, slot crash
//!   budgets and respawn, the net-fault shim, standby registration,
//!   drain and rescue. The TCP
//!   loop in the harness, the `chopin-model` checker and the
//!   deterministic simulation in `tests/sim.rs` all drive this code.
//! * [`lease`] — the coordinator's brain: a [`lease::LeaseTable`]
//!   state machine handing out *leases* (cell + deadline + attempt)
//!   driven entirely by a caller-supplied clock, with expiry →
//!   reassignment, seeded full-jitter backoff on re-lease (the same
//!   [`SupervisorPolicy`] jitter as sequential retries) and
//!   work-stealing for stragglers. Its canonical
//!   [`lease::LeaseTable::snapshot`] is what lets the model checker
//!   deduplicate states.
//! * [`merge`] — the determinism anchor: duplicate completions from
//!   stolen or re-leased cells are resolved by a fixed
//!   `(attempt, worker)` tiebreak, so merged journals and the final
//!   CSV never depend on which worker happened to finish first; and
//!   [`merge::recover`], the one recovery routine (absorb journal rows,
//!   return the winners the base journal lacks) that resume, takeover,
//!   assembly and the model share.
//!
//! [`config::FleetPlan`] carries the statically-analyzable fleet shape
//! into the pre-flight analyzer (rules R1201–R1203);
//! [`config::FleetConfig`] is the full runtime configuration including
//! the worker-kill storm used by `artifact chaos --workers`.
//!
//! [`SuiteSupervisor`]: https://docs.rs/chopin-harness
//! [`SupervisorPolicy`]: chopin_faults::SupervisorPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod coordinator;
pub mod lease;
pub mod merge;
pub mod protocol;

pub use config::{parse_storm_flag, FleetConfig, FleetPlan, WorkerStormPlan, MAX_FLEET_WORKERS};
pub use coordinator::{Coordinator, Incarnation, Input, Output};
pub use lease::{Grant, LeaseGrant, LeaseMetrics, LeaseTable};
pub use merge::{recover, CellMerge, Recovery, Row};
pub use protocol::{admission, FleetFrame};
