//! The typed model state and its transition relation.
//!
//! One [`ModelState`] is a global snapshot of the modelled fleet: the
//! coordinator (the *shipped* [`Coordinator`], or `None` after a
//! crash), every worker process, the in-flight worker→coordinator
//! frames, the durable journals (per-worker shards plus the append-only
//! base), the virtual clock, the adversarial budgets, and ghost
//! variables that exist only for invariant checking — which cells ever
//! had a durable completion record, and which `(attempt, worker)`
//! candidates were offered to the current coordinator incarnation.
//!
//! The model implements only what the coordinator does not own: the
//! workers, the wire, the journals and the adversary. Every coordinator
//! decision — granting, fencing a stale echo, freeing a dead worker's
//! leases, respawning its slot, draining, the takeover rescue — is a
//! [`Coordinator::step`], and the model applies the outputs: a
//! `@lease`, `@wait` or `@drain` moves the addressed worker's automaton
//! and a spawn starts a fresh worker that truncates its shard and says
//! hello. Binds, welcomes, crash reports and log notes have no model
//! counterpart. Recovery (resume, takeover, the final seal) is the
//! shipped [`recover`].
//!
//! [`ModelState::successors`] is the full transition relation:
//! protocol moves (ask/complete/fail/deliver/detect/drain), clock moves
//! (advance to the next interesting instant, expiry sweeps) and
//! adversary moves (worker death, death mid-completion, coordinator
//! crash, resume). Coordinator replies are synchronous — the worker
//! loop blocks on each `@next` round-trip — so the only queued
//! direction is worker→coordinator, per-channel FIFO, exactly the TCP
//! guarantee. A dead worker's already-written frames stay deliverable
//! until its channel drains, and only then can the coordinator see the
//! EOF: the kernel hands the reader buffered bytes before the hangup.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use chopin_fleet::coordinator::STANDBY_RESCUE_MS;
use chopin_fleet::{
    protocol, recover, Coordinator, FleetConfig, FleetFrame, Incarnation, Input, LeaseTable,
    Output, Row,
};

use crate::bounds::Bounds;

/// The per-run token the modelled fleet is gated on when
/// [`Bounds::token`] is set; the intruder offers a different one.
pub const MODEL_TOKEN: &str = "model-fleet-token";

/// The deterministic payload a completing worker reports for `cell` —
/// making the expected merged output a pure function of the bounds, so
/// determinism is checkable per state instead of by comparing runs.
#[must_use]
pub fn payload_of(cell: usize) -> String {
    format!("payload(cell{cell})")
}

/// The reason every modelled cell-level failure reports.
pub const FAIL_REASON: &str = "errored:model-fault";

/// Which seeded protocol bug, if any, the model carries. Both live in
/// the model's own moves, so the shipped coordinator has no bug switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// The shipped semantics.
    None,
    /// `demo:lost-lease` — resume discards the winners recovery returns
    /// instead of persisting them into the base journal before the
    /// respawned workers truncate their shards. One crash absorbs the
    /// completion into coordinator memory; the truncation erases the
    /// only durable copy; a second crash loses the cell (R1303).
    LostLease,
    /// `demo:split-brain` — the model rewrites a stale frame's echo to
    /// the live nonce before delivering it, so a `@done` written against
    /// the dead incarnation's lease-id space reaches the new table as if
    /// it were current (R1402).
    SplitBrain,
}

/// One worker→coordinator frame in flight: the `@done` or `@fail` as
/// the worker wrote it, echoing the granting incarnation's nonce (the
/// model mints the epoch as the nonce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// The wire frame.
    pub frame: FleetFrame,
    /// The `(cell, attempt)` a `@done` offers to the merge, for the
    /// ghosts.
    pub offer: Option<(usize, u32)>,
}

/// How a running worker's cell ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finish {
    Ok,
    Fail,
    Crash,
}

/// One worker process's automaton state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Alive, about to send `@next`.
    Idle {
        /// Current worker id of the slot.
        worker: u64,
    },
    /// Told to `@wait`; re-asks at `until`.
    Waiting {
        /// Current worker id of the slot.
        worker: u64,
        /// Virtual instant of the next `@next`.
        until: u64,
    },
    /// Holds a lease and is executing its cell.
    Running {
        /// Current worker id of the slot.
        worker: u64,
        /// The held lease.
        lease: u64,
        /// The leased cell.
        cell: usize,
        /// The lease's attempt number.
        attempt: u32,
        /// Epoch of the incarnation that granted the lease — stamped
        /// into the `@done`/`@fail` the worker eventually writes.
        epoch: u32,
    },
    /// Crashed; the coordinator has not yet seen the EOF.
    Dead {
        /// The dead worker's id.
        worker: u64,
    },
    /// Drained, reaped, or orphaned by a coordinator crash.
    Exited,
}

impl Slot {
    fn alive_worker(&self) -> Option<u64> {
        match self {
            Slot::Idle { worker } | Slot::Waiting { worker, .. } | Slot::Running { worker, .. } => {
                Some(*worker)
            }
            Slot::Dead { .. } | Slot::Exited => None,
        }
    }
}

/// A global snapshot of the modelled fleet. See the module docs.
#[derive(Debug, Clone)]
pub struct ModelState {
    /// The virtual clock, in milliseconds.
    pub now: u64,
    /// The shipped coordinator, or `None` while the coordinator is down.
    pub coordinator: Option<Coordinator>,
    /// Worker processes, indexed by slot number.
    pub slots: Vec<Slot>,
    /// Per-slot worker→coordinator FIFO channels.
    pub channels: Vec<Vec<Msg>>,
    /// Durable per-worker shard journals, keyed by worker id. Files
    /// persist across the death of their writer; a (re)spawned worker
    /// truncates its own shard.
    pub shards: BTreeMap<u64, Vec<Row>>,
    /// The append-only base journal.
    pub base: Vec<Row>,
    /// Adversarial crash events spent (worker deaths + coordinator
    /// crashes).
    pub crashes_used: u32,
    /// Adversarial lease-expiry events spent (clock advances that land
    /// on a live lease's deadline).
    pub expiries_used: u32,
    /// Adversarial network events spent (frame drops + duplications).
    pub net_used: u32,
    /// The serving coordinator incarnation's epoch (1 for the primary;
    /// bumped by every standby takeover). The model mints it as the
    /// incarnation's `coord` nonce.
    pub epoch: u32,
    /// Whether the coordinator died with a standby registered: the next
    /// coordinator move is a takeover, not a crash-and-resume.
    pub handoff: bool,
    /// Ghost: the shipped admission gate let the wrong token in (R1403).
    /// Probed once at [`ModelState::init`] on a copy of the coordinator —
    /// admission is a pure function of the two tokens, so interleaving
    /// the intruder's `@hello` with protocol moves would double the
    /// state space without adding coverage. A broken gate therefore
    /// violates R1403 on the initial state itself.
    pub intruder_admitted: bool,
    /// Ghost: the shipped admission gate refused the run's own token
    /// (the other way token gating can be wrong; also R1403).
    pub legit_refused: bool,
    /// Ghost: a frame from a fenced (dead) incarnation reached the live
    /// coordinator unfenced — split brain (R1402).
    pub stale_applied: bool,
    /// Whether the matrix drained and the run assembled (terminal).
    pub done: bool,
    /// Ghost: cells that ever had a durable completion record (every
    /// completion journals its shard before `@done`, so this is also
    /// "cells ever completed").
    pub durable: BTreeSet<usize>,
    /// Ghost: `(attempt, worker)` completion candidates offered to the
    /// *current* coordinator incarnation (reset on crash, re-seeded by
    /// what resume absorbs) — the oracle for the merge-minimality rule.
    pub offers: Vec<BTreeSet<(u32, u64)>>,
}

impl ModelState {
    /// The initial state: a primary coordinator with an empty table,
    /// which spawns every slot at generation zero (truncating their
    /// shards). When the fleet is token-gated the intruder's admission
    /// probe happens here, through the shipped coordinator — see
    /// [`ModelState::intruder_admitted`].
    #[must_use]
    pub fn init(bounds: &Bounds) -> ModelState {
        let mut s = ModelState {
            now: 0,
            coordinator: None,
            slots: vec![Slot::Exited; bounds.workers],
            channels: vec![Vec::new(); bounds.workers],
            shards: BTreeMap::new(),
            base: Vec::new(),
            crashes_used: 0,
            expiries_used: 0,
            net_used: 0,
            epoch: 1,
            handoff: false,
            intruder_admitted: false,
            legit_refused: false,
            stale_applied: false,
            done: false,
            durable: BTreeSet::new(),
            offers: vec![BTreeSet::new(); bounds.cells],
        };
        s.serve(bounds, Self::fresh_table(bounds), false);
        if let (true, Some(coordinator)) = (bounds.token, &s.coordinator) {
            let mut probe = coordinator.clone();
            let mut refused = |token: Option<&str>| {
                let hello = Input::Hello {
                    conn: u64::MAX,
                    worker: None,
                    token: token.map(str::to_string),
                };
                (probe.step(hello, 0).iter()).any(|o| {
                    matches!(
                        o,
                        Output::Send {
                            frame: FleetFrame::Reject { .. },
                            ..
                        }
                    )
                })
            };
            s.intruder_admitted = !refused(Some("wrong-token")) || !refused(None);
            s.legit_refused = refused(Some(MODEL_TOKEN));
        }
        s
    }

    /// The live coordinator's lease table, if the coordinator is up.
    #[must_use]
    pub fn table(&self) -> Option<&LeaseTable> {
        self.coordinator.as_ref().map(Coordinator::table)
    }

    /// Canonical rendering for state hashing: every embedded instant
    /// (lease ages, backoff edges, worker wake-ups) is rebased against
    /// `now`, so states that differ only by a uniform clock shift
    /// collapse into one. Includes everything that can influence
    /// future behaviour plus the invariant ghosts; excludes report-only
    /// counters (see [`Coordinator::snapshot`] for what the
    /// coordinator's part leaves out, and why).
    #[must_use]
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{:?}\n",
            (
                self.done,
                (self.crashes_used, self.expiries_used, self.net_used),
                (self.epoch, self.handoff),
                (
                    self.intruder_admitted,
                    self.legit_refused,
                    self.stale_applied
                ),
            )
        );
        match &self.coordinator {
            None => out.push_str("coordinator down\n"),
            Some(c) => out.push_str(&c.snapshot(self.now)),
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let slot = match *slot {
                Slot::Waiting { worker, until } => Slot::Waiting {
                    worker,
                    until: until.saturating_sub(self.now),
                },
                ref other => other.clone(),
            };
            let _ = writeln!(out, "slot {i} {slot:?} {:?}", self.channels[i]);
        }
        let _ = writeln!(
            out,
            "shards {:?}\nbase {:?}\ndurable {:?}\noffers {:?}",
            self.shards, self.base, self.durable, self.offers
        );
        out
    }

    /// Every enabled transition, as `(trace label, successor)` pairs in
    /// a fixed order. Empty exactly for terminal (drained) states — a
    /// non-terminal state with no successors is a drain deadlock.
    #[must_use]
    pub fn successors(&self, bounds: &Bounds, bug: SeededBug) -> Vec<(String, ModelState)> {
        if self.done {
            return Vec::new();
        }
        let mut out: Vec<(String, ModelState)> = Vec::new();
        let Some(coordinator) = self.coordinator.as_ref() else {
            if self.handoff {
                out.push(self.takeover(bounds));
            } else {
                out.push(self.resume(bounds, bug));
            }
            return out;
        };
        if coordinator.is_drained() {
            out.push(self.assemble());
        }
        if coordinator.is_stranded() {
            out.push(self.abandon());
        }
        for slot in 0..self.slots.len() {
            match self.slots[slot] {
                // `@next` rides the same FIFO channel as `@done`/`@fail`,
                // so the coordinator always consumes a worker's buffered
                // report before it can see that worker's next ask.
                Slot::Idle { .. } if self.channels[slot].is_empty() => {
                    out.extend(self.ask(slot, bounds));
                }
                Slot::Idle { .. } => {}
                Slot::Running { cell, .. } if cell < bounds.failing_cells => {
                    out.push(self.finish(slot, Finish::Fail));
                }
                Slot::Running { .. } => {
                    out.push(self.finish(slot, Finish::Ok));
                    if self.crashes_used < bounds.crashes {
                        out.push(self.finish(slot, Finish::Crash));
                    }
                }
                Slot::Waiting { .. } | Slot::Dead { .. } | Slot::Exited => {}
            }
            if !self.channels[slot].is_empty() {
                out.push(self.deliver(slot, bounds, bug));
                if self.net_used < bounds.net {
                    out.push(self.net_drop(slot));
                    out.push(self.net_dup(slot));
                }
            }
            if matches!(self.slots[slot], Slot::Dead { .. }) && self.channels[slot].is_empty() {
                out.push(self.detect(slot, bounds));
            }
            if self.slots[slot].alive_worker().is_some() && self.crashes_used < bounds.crashes {
                out.push(self.die(slot));
            }
        }
        if coordinator.table().next_deadline_in(self.now) == Some(0) {
            out.extend(self.tick(bounds));
        }
        if self.crashes_used < bounds.crashes {
            if bounds.standby {
                out.push(self.handoff());
            } else {
                out.push(self.coord_crash());
            }
        }
        if let Some((target, crosses)) = self.next_instant() {
            // The expiry budget bounds the adversary's *choice* to
            // delay a worker past a lease deadline. When the crossing
            // is the only event left (e.g. a dropped `@fail` whose
            // lease must expire to requeue the cell, with every other
            // budget spent), it is inevitability, not choice: real
            // time always flows, so the forced crossing proceeds
            // budget-free rather than deadlocking the bounded space
            // (the same fairness assumption that underpins R1305).
            if !crosses || self.expiries_used < bounds.expiries() || out.is_empty() {
                out.push(self.advance(target, crosses));
            }
        }
        out
    }

    fn fresh_table(bounds: &Bounds) -> LeaseTable {
        LeaseTable::new(bounds.seeds(), bounds.policy(), bounds.deadline_ms)
    }

    fn token(bounds: &Bounds) -> Option<String> {
        bounds.token.then(|| MODEL_TOKEN.to_string())
    }

    /// Bring up a coordinator incarnation over `table` at the current
    /// epoch (the model's nonce) and apply what its start does.
    fn serve(&mut self, bounds: &Bounds, table: LeaseTable, successor: bool) -> Vec<Output> {
        let mut config = FleetConfig::new(bounds.workers as u32);
        config.token = Self::token(bounds);
        let mut coordinator = Coordinator::new(
            table,
            &config,
            Incarnation {
                coord: u64::from(self.epoch),
                epoch: self.epoch,
                fingerprint: 0,
                journal: None,
                successor,
            },
        );
        let outputs = coordinator.start(self.now);
        self.coordinator = Some(coordinator);
        self.apply(&outputs, bounds);
        outputs
    }

    /// Feed one input to the live coordinator and apply the outputs.
    fn feed(&mut self, input: Input, bounds: &Bounds) -> Vec<Output> {
        let now = self.now;
        let Some(coordinator) = self.coordinator.as_mut() else {
            return Vec::new();
        };
        let outputs = coordinator.step(input, now);
        self.apply(&outputs, bounds);
        outputs
    }

    /// Move the worker automata the way the coordinator's outputs say:
    /// replies reach live workers, and a spawned worker truncates its
    /// shard and says hello (whose outputs are applied in turn).
    fn apply(&mut self, outputs: &[Output], bounds: &Bounds) {
        let mut queue: VecDeque<Output> = outputs.iter().cloned().collect();
        while let Some(output) = queue.pop_front() {
            let (worker, next) = match output {
                Output::Lease { worker, grant } => (
                    worker,
                    Slot::Running {
                        worker,
                        lease: grant.lease,
                        cell: grant.cell,
                        attempt: grant.attempt,
                        epoch: self.epoch,
                    },
                ),
                Output::Send {
                    worker,
                    frame: FleetFrame::Wait { ms },
                } => (
                    worker,
                    Slot::Waiting {
                        worker,
                        until: self.now + ms,
                    },
                ),
                Output::Send {
                    worker,
                    frame: FleetFrame::Drain,
                } => (worker, Slot::Exited),
                Output::Spawn { slot, worker } => {
                    self.shards.insert(worker, Vec::new());
                    self.slots[slot] = Slot::Idle { worker };
                    let hello = Input::Hello {
                        conn: slot as u64,
                        worker: Some(worker),
                        token: Self::token(bounds),
                    };
                    if let Some(coordinator) = self.coordinator.as_mut() {
                        queue.extend(coordinator.step(hello, self.now));
                    }
                    continue;
                }
                _ => continue,
            };
            if let Some(slot) = self
                .slots
                .iter()
                .position(|s| s.alive_worker() == Some(worker))
            {
                self.slots[slot] = next;
            }
        }
    }

    /// `@next` round-trip: the synchronous ask-and-reply.
    fn ask(&self, slot: usize, bounds: &Bounds) -> Option<(String, ModelState)> {
        let mut s = self.clone();
        let worker = s.slots[slot].alive_worker()?;
        let next = FleetFrame::Next { worker };
        let outputs = s.feed(
            Input::Frame {
                worker,
                frame: next,
            },
            bounds,
        );
        let reply = outputs.iter().find_map(|o| match o {
            Output::Lease { worker: w, grant } if *w == worker => {
                let stolen = if grant.stolen { ", stolen" } else { "" };
                Some(format!(
                    "@lease L{} (cell {}, attempt {}{stolen})",
                    grant.lease, grant.cell, grant.attempt
                ))
            }
            Output::Send { worker: w, frame } if *w == worker => match frame {
                FleetFrame::Wait { ms } => Some(format!("@wait {ms}ms")),
                FleetFrame::Drain => Some("@drain, exits cleanly".to_string()),
                _ => None,
            },
            _ => None,
        })?;
        Some((format!("w{worker} → @next; ← {reply}"), s))
    }

    /// A running worker's cell ends. A completion journals the shard
    /// row first and sends `@done` second — the real worker's write
    /// order; a cell-level failure sends `@fail`; and the nastiest death
    /// strikes between the two writes, so the completion is durable but
    /// the coordinator is never told.
    fn finish(&self, slot: usize, how: Finish) -> (String, ModelState) {
        let mut s = self.clone();
        let Slot::Running {
            worker,
            lease,
            cell,
            attempt,
            epoch,
        } = s.slots[slot]
        else {
            return ("unreachable: finish on a non-running slot".to_string(), s);
        };
        s.slots[slot] = Slot::Idle { worker };
        let coord = u64::from(epoch);
        if how == Finish::Fail {
            let reason = FAIL_REASON.to_string();
            let frame = FleetFrame::Fail {
                worker,
                lease,
                coord,
                reason,
            };
            s.channels[slot].push(Msg { frame, offer: None });
            return (
                format!("w{worker} fails cell {cell}, sends @fail L{lease}"),
                s,
            );
        }
        let payload = payload_of(cell);
        let row = Row {
            cell,
            attempt,
            worker,
            payload,
        };
        s.shards.entry(worker).or_default().push(row);
        s.durable.insert(cell);
        if how == Finish::Crash {
            s.slots[slot] = Slot::Dead { worker };
            s.crashes_used += 1;
            let label = format!("w{worker} journals cell {cell} then dies before sending @done");
            return (label, s);
        }
        let frame = FleetFrame::Done {
            worker,
            lease,
            coord,
            payload: payload_of(cell),
        };
        let offer = Some((cell, attempt));
        s.channels[slot].push(Msg { frame, offer });
        let label =
            format!("w{worker} completes cell {cell}: journals shard row, sends @done L{lease}");
        (label, s)
    }

    /// Deliver the oldest buffered frame from one worker's channel. The
    /// coordinator fences a frame echoing a dead incarnation's nonce;
    /// the `SplitBrain` seeded bug rewrites the echo to the live nonce
    /// first, which R1402 then catches.
    fn deliver(&self, slot: usize, bounds: &Bounds, bug: SeededBug) -> (String, ModelState) {
        let mut s = self.clone();
        let Msg { mut frame, offer } = s.channels[slot].remove(0);
        let label = protocol::render(&frame);
        let (FleetFrame::Done { worker, coord, .. } | FleetFrame::Fail { worker, coord, .. }) =
            &mut frame
        else {
            return (format!("unreachable: {label} in flight"), s);
        };
        let worker = *worker;
        if *coord != u64::from(s.epoch) && bug == SeededBug::SplitBrain {
            s.stale_applied = true;
            *coord = u64::from(s.epoch);
        }
        let counters = |s: &ModelState| {
            (s.coordinator.as_ref())
                .map(|c| (c.is_drained(), c.metrics(), c.table().metrics()))
                .unwrap_or_default()
        };
        let (drained, m0, t0) = counters(&s);
        s.feed(Input::Frame { worker, frame }, bounds);
        let (_, m1, t1) = counters(&s);
        let note = if drained {
            "ignored: the coordinator has drained".to_string()
        } else if m1.stale_fenced > m0.stale_fenced {
            format!("fenced (stale epoch; serving e{})", s.epoch)
        } else if let Some((cell, attempt)) = offer {
            s.offers[cell].insert((attempt, worker));
            if m1.completions > m0.completions {
                "merged".to_string()
            } else {
                "unknown lease".to_string()
            }
        } else if t1.requeued > t0.requeued {
            "requeued with backoff".to_string()
        } else {
            "recorded".to_string()
        };
        (format!("coordinator reads {label} → {note}"), s)
    }

    /// SIGKILL a live worker. Its shard and already-written frames
    /// survive; its in-progress cell (if any) simply never reports.
    fn die(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let worker = s.slots[slot].alive_worker().unwrap_or(u64::MAX);
        let doing = match s.slots[slot] {
            Slot::Running { cell, .. } => format!(" mid-cell {cell}"),
            _ => String::new(),
        };
        s.slots[slot] = Slot::Dead { worker };
        s.crashes_used += 1;
        (
            format!("w{worker} dies{doing} (SIGKILL); shard and buffered frames survive"),
            s,
        )
    }

    /// The coordinator sees the dead worker's EOF — only after its
    /// buffered frames drained — and then the reaper's failed exit: the
    /// coordinator frees the leases and, if the worker was its own
    /// child, respawns the slot under a fresh id.
    fn detect(&self, slot: usize, bounds: &Bounds) -> (String, ModelState) {
        let mut s = self.clone();
        let Slot::Dead { worker } = s.slots[slot] else {
            return ("unreachable: detect on a live slot".to_string(), s);
        };
        s.slots[slot] = Slot::Exited;
        s.feed(Input::Eof { worker }, bounds);
        let exit = Input::ChildExit {
            worker,
            clean: false,
            signal: None,
        };
        let respawned = s.feed(exit, bounds).iter().find_map(|o| match o {
            Output::Spawn { worker, .. } => Some(format!("respawns slot {slot} as w{worker}")),
            _ => None,
        });
        let tail = respawned.unwrap_or_else(|| "no respawn".to_string());
        (
            format!("coordinator sees w{worker} EOF: requeues its cells, {tail}"),
            s,
        )
    }

    /// A wake-up with nothing to read: the coordinator sweeps leases
    /// whose deadline the clock has reached. Competes with frame
    /// delivery at the boundary instant — the `Done`-at-deadline race
    /// the lease table pins as order-independent.
    fn tick(&self, bounds: &Bounds) -> Option<(String, ModelState)> {
        let mut s = self.clone();
        let before = s.table()?.metrics().expired;
        s.feed(Input::Tick, bounds);
        let n = s.table()?.metrics().expired - before;
        if n == 0 {
            return None;
        }
        Some((format!("wake-up: {n} lease(s) expired and requeued"), s))
    }

    /// The next interesting instant: a waiting worker's wake-up or a
    /// live lease's deadline, whichever comes first. `crosses` marks a
    /// target that lands on a lease deadline — the adversarial delay
    /// that draws on the expiry budget. `None` while an expired lease
    /// awaits its sweep (the coordinator wakes at once then).
    fn next_instant(&self) -> Option<(u64, bool)> {
        let table = self.table()?;
        let deadline = match table.next_deadline_in(self.now) {
            Some(0) => return None,
            Some(delta) => Some(self.now + delta),
            None => None,
        };
        let mut target: Option<u64> = deadline;
        for slot in &self.slots {
            if let Slot::Waiting { until, .. } = slot {
                if *until > self.now {
                    target = Some(target.map_or(*until, |t| t.min(*until)));
                }
            }
        }
        let target = target?;
        let crosses = deadline.is_some_and(|d| target >= d);
        Some((target, crosses))
    }

    /// Advance the clock to `target`, waking due workers. No sweep
    /// happens here: expiry is a separate, competing transition.
    fn advance(&self, target: u64, crosses: bool) -> (String, ModelState) {
        let mut s = self.clone();
        let delta = target - s.now;
        s.now = target;
        let mut woke = Vec::new();
        for slot in &mut s.slots {
            if let Slot::Waiting { worker, until } = slot {
                if *until <= target {
                    woke.push(format!("w{worker}"));
                    *slot = Slot::Idle { worker: *worker };
                }
            }
        }
        if crosses {
            s.expiries_used += 1;
        }
        let mut notes = Vec::new();
        if !woke.is_empty() {
            notes.push(format!("{} wake", woke.join(" ")));
        }
        if crosses {
            notes.push("a lease hits its deadline".to_string());
        }
        let suffix = if notes.is_empty() {
            String::new()
        } else {
            format!(" ({})", notes.join("; "))
        };
        (format!("clock +{delta}ms → t={target}ms{suffix}"), s)
    }

    /// The coordinator goes down: undelivered frames die with it.
    /// Without a standby every worker exits with its socket; with one,
    /// live workers survive to reconnect, while a dead one is gone for
    /// good — its EOF and exit were the dead coordinator's to see.
    fn down(&self, handoff: bool) -> ModelState {
        let mut s = self.clone();
        s.coordinator = None;
        s.handoff = handoff;
        for chan in &mut s.channels {
            chan.clear();
        }
        for slot in &mut s.slots {
            if !handoff || matches!(slot, Slot::Dead { .. }) {
                *slot = Slot::Exited;
            }
        }
        s
    }

    /// SIGKILL the coordinator. Worker sockets close, so every worker
    /// exits; undelivered frames die with the process.
    fn coord_crash(&self) -> (String, ModelState) {
        let mut s = self.down(false);
        s.crashes_used += 1;
        (
            "coordinator crashes (SIGKILL); workers orphaned, in-flight frames lost".to_string(),
            s,
        )
    }

    /// SIGKILL the coordinator *with a standby registered*: workers
    /// survive (they reconnect to the successor with backoff), but the
    /// frames buffered in the dead process die with it — recovery rides
    /// on the shard-first write order plus takeover absorption.
    fn handoff(&self) -> (String, ModelState) {
        let mut s = self.down(true);
        s.crashes_used += 1;
        (
            "coordinator dies (SIGKILL); the standby watches its heartbeat lapse, \
             workers reconnect to the successor"
                .to_string(),
            s,
        )
    }

    /// A stranded coordinator — no worker left to run what remains —
    /// exits with an error, and the operator reruns with `--resume`.
    /// Costs no budget: it follows from crashes already spent.
    fn abandon(&self) -> (String, ModelState) {
        (
            "coordinator exits: the fleet lost every worker; the run is resumed".to_string(),
            self.down(false),
        )
    }

    /// Absorb the base journal and every shard into a fresh table via
    /// the shipped [`recover`], re-seeding the offer ghost.
    fn recovered(&mut self, bounds: &Bounds) -> (LeaseTable, usize, Vec<Row>) {
        let mut table = Self::fresh_table(bounds);
        let rows: Vec<Row> = self
            .base
            .iter()
            .chain(self.shards.values().flatten())
            .cloned()
            .collect();
        let absorbed = rows.len();
        self.offers = vec![BTreeSet::new(); bounds.cells];
        for row in &rows {
            self.offers[row.cell].insert((row.attempt, row.worker));
        }
        let base = &self.base;
        let winners = recover(&mut table, rows, |cell| base.iter().any(|r| r.cell == cell)).winners;
        (table, absorbed, winners)
    }

    /// The standby takes over at the next epoch: it recovers base and
    /// shards — **without** truncating shards or respawning workers —
    /// persists the returned winners into the base, and serves. The
    /// primary's live workers reconnect under their old ids.
    ///
    /// One wrinkle the checker itself uncovered: quarantine verdicts
    /// live only in the dead coordinator's memory (a failed cell has
    /// no journal row), so a takeover from a drained-then-killed
    /// primary rebuilds a table with unresolved cells and nobody left
    /// to run them. The shipped answer is the rescue window: when no
    /// worker reconnects, the clock runs out [`STANDBY_RESCUE_MS`] and
    /// the successor spawns a fresh pool, whose deterministic
    /// re-execution re-quarantines the failed cells.
    fn takeover(&self, bounds: &Bounds) -> (String, ModelState) {
        let mut s = self.clone();
        let (table, absorbed, winners) = s.recovered(bounds);
        let persisted = winners.len();
        s.base.extend(winners);
        s.epoch += 1;
        s.handoff = false;
        s.serve(bounds, table, true);
        for slot in 0..s.slots.len() {
            if let Some(worker) = s.slots[slot].alive_worker() {
                let hello = Input::Hello {
                    conn: slot as u64,
                    worker: Some(worker),
                    token: Self::token(bounds),
                };
                s.feed(hello, bounds);
            }
        }
        let mut tail = "; workers reconnect under their old ids".to_string();
        let nobody = !s.slots.iter().any(|slot| slot.alive_worker().is_some());
        if nobody && s.coordinator.as_ref().is_some_and(|c| !c.is_drained()) {
            s.now += STANDBY_RESCUE_MS;
            let spawned = s.feed(Input::Tick, bounds);
            let spawned = spawned.iter().filter(|o| matches!(o, Output::Spawn { .. }));
            tail = format!(
                "; no worker reconnects within the rescue window — {} fresh worker(s) spawned",
                spawned.count()
            );
        }
        (
            format!(
                "standby takes over at epoch {}: absorbs {absorbed} journal row(s) \
                 (shards kept), persists {persisted} winner(s) to base{tail}",
                s.epoch
            ),
            s,
        )
    }

    /// The net adversary eats the oldest buffered frame. The worker is
    /// oblivious (its reply raced a granted follow-up, so no timeout
    /// resend fires); the cell comes back only through lease expiry —
    /// which is why the expiry budget scales with the net budget.
    fn net_drop(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let msg = s.channels[slot].remove(0);
        s.net_used += 1;
        (
            format!("the wire drops {}", protocol::render(&msg.frame)),
            s,
        )
    }

    /// The net adversary duplicates the oldest buffered frame (a retry
    /// racing its own original): the second copy must read as a
    /// harmless stale duplicate.
    fn net_dup(&self, slot: usize) -> (String, ModelState) {
        let mut s = self.clone();
        let msg = s.channels[slot][0].clone();
        s.channels[slot].insert(1, msg.clone());
        s.net_used += 1;
        (
            format!("the wire duplicates {}", protocol::render(&msg.frame)),
            s,
        )
    }

    /// `--resume`: a fresh primary recovers base and shards, persists
    /// the returned winners into the base journal, and only then spawns
    /// its pool — whose startup truncates the shards. The `LostLease`
    /// bug discards the winners instead, leaving absorbed completions
    /// in coordinator memory only.
    fn resume(&self, bounds: &Bounds, bug: SeededBug) -> (String, ModelState) {
        let mut s = self.clone();
        let (table, absorbed, winners) = s.recovered(bounds);
        let mut persisted = winners.len();
        if bug == SeededBug::LostLease {
            persisted = 0;
        } else {
            s.base.extend(winners);
        }
        s.serve(bounds, table, false);
        let skipped = if bug == SeededBug::LostLease {
            " [bug: persist skipped]"
        } else {
            ""
        };
        (
            format!(
                "coordinator resumes: absorbs {absorbed} journal row(s), persists {persisted} \
                 winner(s) to base{skipped}, respawns w0..w{} (truncating their shards)",
                bounds.workers - 1
            ),
            s,
        )
    }

    /// The matrix drained: every worker exits, and the base journal is
    /// sealed with the winners [`recover`] returns for cells it does
    /// not hold yet. Terminal.
    fn assemble(&self) -> (String, ModelState) {
        let mut s = self.clone();
        let in_base = |cell| s.base.iter().any(|r: &Row| r.cell == cell);
        let winners = s
            .table()
            .map(|t| recover(&mut t.clone(), Vec::new(), in_base).winners)
            .unwrap_or_default();
        let sealed = winners.len();
        s.base.extend(winners);
        s.slots.fill(Slot::Exited);
        for chan in &mut s.channels {
            chan.clear();
        }
        s.done = true;
        (
            format!("matrix resolved: @drain all workers, base journal sealed (+{sealed} row(s))"),
            s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_state_has_the_expected_shape() {
        let bounds = Bounds::default();
        let s = ModelState::init(&bounds);
        assert_eq!(s.slots.len(), bounds.workers);
        assert_eq!(s.offers.len(), bounds.cells);
        assert!(!s.done);
        let succ = s.successors(&bounds, SeededBug::None);
        // Two idle asks, one worker death per slot, one coordinator
        // hand-off (standby is registered by default); no clock moves
        // yet (nothing waiting, nothing leased), no net moves (channels
        // empty), and the intruder's admission probe happened at init.
        assert_eq!(succ.len(), 2 * bounds.workers + 1);
    }

    #[test]
    fn canonicalization_collapses_clock_shifts() {
        let bounds = Bounds::default();
        let s = ModelState::init(&bounds);
        let Some((_, asked)) = s.ask(0, &bounds) else {
            panic!("idle worker must be grantable")
        };
        // The same state under a later clock must NOT collapse: the
        // lease age differs.
        let mut shifted = asked.clone();
        shifted.now += 500;
        assert_ne!(asked.canonical(), shifted.canonical());
        // A true uniform shift: replay the same transition at a later
        // clock.
        let mut late = ModelState::init(&bounds);
        late.now = 500;
        let Some((_, late_asked)) = late.ask(0, &bounds) else {
            panic!("idle worker must be grantable")
        };
        assert_eq!(asked.canonical(), late_asked.canonical());
    }

    #[test]
    fn a_completion_round_trip_reaches_done_for_a_tiny_matrix() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds);
        let (_, s) = s.ask(0, &bounds).unwrap();
        let (_, s) = s.finish(0, Finish::Ok);
        let (_, s) = s.deliver(0, &bounds, SeededBug::None);
        assert!(s.table().unwrap().is_done());
        assert_eq!(s.slots[0], Slot::Exited, "the drain reached the worker");
        let (_, s) = s.assemble();
        assert!(s.done);
        assert_eq!(s.base.len(), 1);
        assert_eq!(s.base[0].payload, payload_of(0));
        assert!(s.successors(&bounds, SeededBug::None).is_empty());
    }

    #[test]
    fn a_takeover_fences_the_old_incarnations_frames() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds);
        let (_, s) = s.ask(0, &bounds).unwrap();
        let (_, s) = s.handoff();
        assert!(s.coordinator.is_none() && s.handoff);
        let (_, s) = s.takeover(&bounds);
        assert_eq!(s.epoch, 2);
        assert!(s.coordinator.is_some() && !s.handoff);

        // The worker finishes the cell it was running under epoch 1 and
        // resends its @done to the successor — which must fence it (the
        // lease id belongs to the dead incarnation's id space).
        let (_, s) = s.finish(0, Finish::Ok);
        let (label, fenced) = s.deliver(0, &bounds, SeededBug::None);
        assert!(label.contains("fenced"), "{label}");
        assert!(!fenced.stale_applied);
        assert_eq!(fenced.coordinator.unwrap().metrics().stale_fenced, 1);

        // The split-brain seeded bug rewrites the echo, so the shipped
        // fence lets the frame through; the ghost records it for R1402.
        let (label, split) = s.deliver(0, &bounds, SeededBug::SplitBrain);
        assert!(split.stale_applied, "{label}");

        // Either way the completion is durable in the (untruncated)
        // shard, so no committed result was lost across the hand-off.
        assert!(fenced.shards.values().flatten().any(|r| r.cell == 0));
    }

    #[test]
    fn the_intruder_is_refused_by_the_shipped_admission_gate() {
        // Token-gated bounds probe the shipped gate at init: the wrong
        // token stays out, the run's own token gets in — both ghosts
        // clean, so R1403 holds from the initial state on.
        let bounds = Bounds::default();
        assert!(bounds.token);
        let s = ModelState::init(&bounds);
        assert!(!s.intruder_admitted && !s.legit_refused);
        // An ungated fleet never probes.
        let ungated = ModelState::init(&Bounds {
            token: false,
            ..bounds
        });
        assert!(!ungated.intruder_admitted && !ungated.legit_refused);
    }

    #[test]
    fn net_drop_and_dup_stay_within_the_budget_and_fifo_discipline() {
        let bounds = Bounds {
            workers: 1,
            cells: 1,
            crashes: 0,
            net: 1,
            failing_cells: 0,
            ..Bounds::default()
        };
        let s = ModelState::init(&bounds);
        let (_, s) = s.ask(0, &bounds).unwrap();
        let (_, s) = s.finish(0, Finish::Ok);
        let (_, dropped) = s.net_drop(0);
        assert!(dropped.channels[0].is_empty());
        assert_eq!(dropped.net_used, 1);
        // Budget exhausted: no further net moves are offered.
        assert!(dropped
            .successors(&bounds, SeededBug::None)
            .iter()
            .all(|(l, _)| !l.contains("the wire")));

        let (_, duped) = s.net_dup(0);
        assert_eq!(duped.channels[0].len(), 2);
        assert_eq!(duped.channels[0][0], duped.channels[0][1]);
    }
}
