//! The fleet coordinator as one pure state machine.
//!
//! [`Coordinator`] owns every coordinator decision: the [`LeaseTable`],
//! the heartbeat reaper, local worker slots with their crash budgets
//! and generations, the `coord`-nonce fence against a previous
//! incarnation's completions, token admission, the seeded
//! [`NetFaultPlan`] shim with its delayed-frame queue, standby
//! registration, the drain and the takeover rescue. It has no socket,
//! process, thread or clock: a driver feeds it [`Input`]s keyed by
//! worker id with the current millisecond, carries out the [`Output`]s
//! in order, and sleeps until [`Coordinator::next_wake`]. The TCP loop
//! in `chopin_harness::fleet`, the `chopin-model` checker and the
//! simulation in `tests/sim.rs` drive this same code. After its input,
//! every [`Coordinator::step`] does the housekeeping: flush due delayed
//! frames, expire leases, reap silent workers, beat to a standby, drain
//! a resolved table and fire the rescue window.
//!
//! [`NetFaultPlan`]: chopin_faults::net::NetFaultPlan

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use chopin_faults::FrameFate;

use crate::config::FleetConfig;
use crate::lease::{Grant, LeaseGrant, LeaseTable};
use crate::protocol::{admission, FleetFrame};

/// How often a worker beats, and how often the coordinator beats to a
/// registered standby, in milliseconds.
pub const HEARTBEAT_EVERY_MS: u64 = 500;

/// Silence after which a worker is declared dead and its leases
/// reassigned (20 beats: a beat only needs the worker's heartbeat
/// thread alive, not the cell), and after which a standby takes over.
pub const HEARTBEAT_TIMEOUT_MS: u64 = 10_000;

/// The wait a worker is told while the primary awaits a standby
/// (`--fleet-await-standby`); also the standby's watch-loop cadence.
pub const POLL_MS: u64 = 250;

/// Worker ids for attachers without a pre-assigned id start here, far
/// above any local slot id (`slot + W * generation`).
pub const EXTERNAL_WORKER_BASE: u64 = 1 << 32;

/// How long a takeover coordinator waits for the primary's workers to
/// reconnect before spawning a pool of its own.
pub const STANDBY_RESCUE_MS: u64 = 5_000;

/// The identity of one coordinator incarnation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incarnation {
    /// The nonce carried in `Welcome` and required as the echo on
    /// `Done`/`Fail`.
    pub coord: u64,
    /// Hand-off depth: the primary serves 1, each takeover adds one.
    pub epoch: u32,
    /// The sweep fingerprint, sent in `Welcome` and checked on `Adopt`.
    pub fingerprint: u64,
    /// The journal base path workers append their shards next to.
    pub journal: Option<String>,
    /// A takeover: spawns no pool at start, but arms the rescue window.
    pub successor: bool,
}

/// One event the driver feeds the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// Connection `conn` sent its `Hello`.
    Hello {
        /// The driver's id for the connection.
        conn: u64,
        /// The worker id the peer claims, if any.
        worker: Option<u64>,
        /// The offered admission token.
        token: Option<String>,
    },
    /// A frame from the connection bound to `worker`.
    Frame {
        /// The sending worker.
        worker: u64,
        /// The frame.
        frame: FleetFrame,
    },
    /// The connection bound to `worker` closed.
    Eof {
        /// The worker whose connection closed.
        worker: u64,
    },
    /// A locally spawned worker process exited.
    ChildExit {
        /// The exited worker.
        worker: u64,
        /// Whether it exited with status 0.
        clean: bool,
        /// The signal that killed it, if any (for crash reports).
        signal: Option<i32>,
    },
    /// Nothing happened before the wake-up; only housekeeping runs.
    Tick,
}

/// One effect the driver carries out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Connection `conn` now speaks for `worker`; close any older
    /// connection of the same worker.
    Bind {
        /// The connection.
        conn: u64,
        /// The worker it speaks for.
        worker: u64,
    },
    /// Send a frame to `worker`.
    Send {
        /// The recipient.
        worker: u64,
        /// The frame.
        frame: FleetFrame,
    },
    /// Send `@lease` to `worker`; the driver renders the payload for
    /// `grant.cell`.
    Lease {
        /// The recipient.
        worker: u64,
        /// The granted lease.
        grant: LeaseGrant,
    },
    /// Close `worker`'s connection.
    Close {
        /// The worker.
        worker: u64,
    },
    /// Spawn a local worker process with this id for `slot`.
    Spawn {
        /// The slot index.
        slot: usize,
        /// The fresh worker id.
        worker: u64,
    },
    /// `worker` was declared dead while holding `cells`, which are
    /// requeued; the driver files one crash report per cell.
    Died {
        /// The dead worker.
        worker: u64,
        /// Schedule indices of the cells it held.
        cells: Vec<usize>,
        /// The last instant it was heard from.
        last_seen: Option<u64>,
        /// The signal that killed it, when a child exit reported one.
        signal: Option<i32>,
    },
    /// A line for the operator's log.
    Note(String),
}

/// Coordinator counters, surfaced as `fleet.*` metrics by the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorMetrics {
    /// Worker processes spawned (pool, respawns and rescue).
    pub spawned: u64,
    /// Workers declared dead.
    pub deaths: u64,
    /// Slots quarantined after using up their crash budget.
    pub quarantined_slots: u64,
    /// `Done` frames the lease table accepted.
    pub completions: u64,
    /// Frames the net shim dropped.
    pub net_dropped: u64,
    /// Frames the net shim delayed.
    pub net_delayed: u64,
    /// Frames the net shim duplicated.
    pub net_duplicated: u64,
    /// Frames a partition window swallowed, either direction.
    pub net_partitioned: u64,
    /// Connections refused for a wrong token.
    pub auth_rejected: u64,
    /// `Done`/`Fail` frames fenced for echoing another incarnation.
    pub stale_fenced: u64,
    /// Reaped workers that reconnected and were revived.
    pub revived: u64,
}

/// An [`Output::Send`].
fn send(worker: u64, frame: FleetFrame) -> Output {
    Output::Send { worker, frame }
}

/// One local worker slot: respawned under a fresh id on each crash
/// until its crash budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    worker: u64,
    generation: u32,
    crashes: u32,
    alive: bool,
    quarantined: bool,
}

/// The coordinator state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct Coordinator {
    table: LeaseTable,
    /// When each live worker was last heard from. A connected worker is
    /// never in `reaped`, so only an admission can bring one back.
    last_seen: BTreeMap<u64, u64>,
    /// Workers declared dead, so a death is declared exactly once.
    reaped: BTreeSet<u64>,
    config: FleetConfig,
    inc: Incarnation,
    slots: Vec<Slot>,
    /// Workers with a bound connection, standbys included.
    connected: BTreeSet<u64>,
    standbys: BTreeSet<u64>,
    /// The adopted standby's address, advertised to every worker.
    successor: Option<String>,
    next_external: u64,
    /// Per-worker outbound frame counter feeding the shim's fate rolls.
    net_seq: BTreeMap<u64, u64>,
    /// Shim-delayed outbound frames: `(due, output)`.
    delayed: Vec<(u64, Output)>,
    last_standby_beat: u64,
    rescue_at: Option<u64>,
    drained: bool,
    metrics: CoordinatorMetrics,
}

impl Coordinator {
    /// A coordinator over `table` (already holding any recovered
    /// completions) for one incarnation of the fleet in `config`.
    #[must_use]
    pub fn new(table: LeaseTable, config: &FleetConfig, inc: Incarnation) -> Coordinator {
        Coordinator {
            table,
            last_seen: BTreeMap::new(),
            reaped: BTreeSet::new(),
            config: config.clone(),
            inc,
            slots: Vec::new(),
            connected: BTreeSet::new(),
            standbys: BTreeSet::new(),
            successor: None,
            next_external: EXTERNAL_WORKER_BASE,
            net_seq: BTreeMap::new(),
            delayed: Vec::new(),
            last_standby_beat: 0,
            rescue_at: None,
            drained: false,
            metrics: CoordinatorMetrics::default(),
        }
    }

    /// Begin serving at `now`: the primary spawns its pool; a successor
    /// arms the rescue window instead, since the primary's workers are
    /// expected to reconnect.
    pub fn start(&mut self, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if self.inc.successor {
            self.rescue_at = Some(now + STANDBY_RESCUE_MS);
        } else {
            self.spawn_pool(&mut out);
        }
        self.housekeep(now, &mut out);
        out
    }

    /// Apply one input at `now`, then run the housekeeping, returning
    /// what the driver must do. Once drained, the coordinator only
    /// drains late joiners and counts exiting slots.
    pub fn step(&mut self, input: Input, now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if self.drained {
            match input {
                Input::Hello { conn, worker, .. } => {
                    let worker = worker.unwrap_or_else(|| self.mint_external());
                    out.push(Output::Bind { conn, worker });
                    out.push(send(worker, FleetFrame::Drain));
                }
                Input::ChildExit { worker, .. } => self.slot_exited(worker),
                _ => {}
            }
            return out;
        }
        match input {
            Input::Hello {
                conn,
                worker,
                token,
            } => self.admit(conn, worker, token, now, &mut out),
            Input::Frame { worker, frame } => self.frame(worker, frame, now, &mut out),
            Input::Eof { worker } => {
                if self.standbys.contains(&worker) {
                    out.push(Output::Note("standby coordinator disconnected".to_string()));
                } else {
                    self.declare_dead(worker, now, None, &mut out);
                }
                self.disconnect(worker);
            }
            Input::ChildExit {
                worker,
                clean,
                signal,
            } => {
                if clean {
                    self.slot_exited(worker);
                } else {
                    self.declare_dead(worker, now, signal, &mut out);
                    // Staleness may already have rotated the slot to a
                    // new generation; then there is nothing to respawn.
                    if let Some(slot) = self.slot_of(worker) {
                        self.crash_slot(slot, &mut out);
                    }
                }
            }
            Input::Tick => {}
        }
        self.housekeep(now, &mut out);
        out
    }

    /// Milliseconds from `now` until the earliest instant at which a
    /// [`Input::Tick`] would change something: a lease deadline, a
    /// delayed frame falling due, a worker's heartbeat expiring, the
    /// next beat owed to a standby, or the rescue deadline. `None` when
    /// only an input can make progress.
    #[must_use]
    pub fn next_wake(&self, now: u64) -> Option<u64> {
        if self.drained {
            return None;
        }
        let beat =
            (!self.standbys.is_empty()).then_some(self.last_standby_beat + HEARTBEAT_EVERY_MS);
        [
            self.table.next_deadline_in(now).map(|ms| now + ms),
            self.delayed.iter().map(|(due, _)| *due).min(),
            self.last_seen
                .values()
                .map(|seen| seen + HEARTBEAT_TIMEOUT_MS + 1)
                .min(),
            beat,
            self.rescue_at,
        ]
        .into_iter()
        .flatten()
        .min()
        .map(|at| at.saturating_sub(now))
    }

    /// The lease table.
    #[must_use]
    pub fn table(&self) -> &LeaseTable {
        &self.table
    }

    /// Consume the coordinator, yielding its lease table.
    #[must_use]
    pub fn into_table(self) -> LeaseTable {
        self.table
    }

    /// The coordinator counters.
    #[must_use]
    pub fn metrics(&self) -> CoordinatorMetrics {
        self.metrics
    }

    /// Whether the table resolved and `@drain` went out to every peer.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Whether the fleet has lost every worker (crash budgets spent, or
    /// a successor's reconnected workers all gone) before the table
    /// resolved: nobody is left to run the remaining cells.
    #[must_use]
    pub fn is_stranded(&self) -> bool {
        !self.drained
            && self.rescue_at.is_none()
            && !self.workers_connected()
            && !self.slots.iter().any(|s| s.alive)
    }

    /// How many local worker processes are still running.
    #[must_use]
    pub fn live_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Canonical rendering at `now`, every instant rebased against
    /// `now`: the lease table's [`LeaseTable::snapshot`] plus the slots,
    /// connections, standby state, shim queue and rescue deadline.
    /// Counters are left out, and so are the heartbeat times and the
    /// reaped set: a worker goes stale only after
    /// [`HEARTBEAT_TIMEOUT_MS`] of silence, which no model trace
    /// reaches, and a reaped id never says hello again to the
    /// incarnation that reaped it there. Two coordinators with
    /// equal snapshots at their own `now` behave alike up to that.
    #[must_use]
    pub fn snapshot(&self, now: u64) -> String {
        let mut out = self.table.snapshot(now);
        let ids = |set: &BTreeSet<u64>| set.iter().map(u64::to_string).collect::<Vec<_>>();
        let _ = writeln!(
            out,
            "coord e{} drained={} connected{:?} standbys{:?} successor={:?} rescue={:?}",
            self.inc.epoch,
            self.drained,
            ids(&self.connected),
            ids(&self.standbys),
            self.successor,
            self.rescue_at.map(|at| at.saturating_sub(now)),
        );
        for (i, s) in self.slots.iter().enumerate() {
            let _ = writeln!(
                out,
                "slot {i} w{} g{} c{} alive={} quarantined={}",
                s.worker, s.generation, s.crashes, s.alive, s.quarantined
            );
        }
        for (due, output) in &self.delayed {
            let _ = writeln!(out, "delayed +{} {output:?}", due.saturating_sub(now));
        }
        let _ = writeln!(out, "net_seq {:?}", self.net_seq);
        out
    }

    fn mint_external(&mut self) -> u64 {
        let id = self.next_external;
        self.next_external += 1;
        id
    }

    fn slot_of(&self, worker: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.worker == worker)
    }

    fn slot_exited(&mut self, worker: u64) {
        if let Some(slot) = self.slot_of(worker) {
            self.slots[slot].alive = false;
        }
    }

    fn workers_connected(&self) -> bool {
        self.connected.iter().any(|w| !self.standbys.contains(w))
    }

    fn disconnect(&mut self, worker: u64) {
        self.connected.remove(&worker);
        self.standbys.remove(&worker);
        self.delayed.retain(|(_, o)| match o {
            Output::Send { worker: w, .. } | Output::Lease { worker: w, .. } => *w != worker,
            _ => true,
        });
    }

    fn spawn_pool(&mut self, out: &mut Vec<Output>) {
        for slot in 0..self.config.plan.workers as usize {
            let worker = slot as u64;
            self.slots.push(Slot {
                worker,
                generation: 0,
                crashes: 0,
                alive: true,
                quarantined: false,
            });
            self.metrics.spawned += 1;
            out.push(Output::Spawn { slot, worker });
        }
    }

    /// Check the token, bind the connection to its claimed (or a fresh
    /// external) id and welcome it with this incarnation's identity.
    fn admit(
        &mut self,
        conn: u64,
        hint: Option<u64>,
        token: Option<String>,
        now: u64,
        out: &mut Vec<Output>,
    ) {
        if !admission(self.config.token.as_deref(), token.as_deref()) {
            // Under a fresh id, so the claimed worker keeps its link.
            let worker = self.mint_external();
            self.metrics.auth_rejected += 1;
            let reason = "auth token mismatch: this run requires --fleet-token".to_string();
            out.extend([
                Output::Note("refusing a connection: auth token mismatch".to_string()),
                Output::Bind { conn, worker },
                send(worker, FleetFrame::Reject { reason }),
                Output::Close { worker },
            ]);
            return;
        }
        let worker = hint.unwrap_or_else(|| self.mint_external());
        // A reconnect under the same id replaces the old connection.
        self.disconnect(worker);
        self.connected.insert(worker);
        out.push(Output::Bind { conn, worker });
        self.last_seen.insert(worker, now);
        if self.reaped.remove(&worker) {
            self.metrics.revived += 1;
            out.push(Output::Note(format!(
                "worker {worker} reconnected after being reaped; revived"
            )));
        }
        let welcome = FleetFrame::Welcome {
            worker,
            fingerprint: format!("{:016x}", self.inc.fingerprint),
            coord: self.inc.coord,
            epoch: self.inc.epoch,
            journal: self.inc.journal.clone(),
        };
        out.push(send(worker, welcome));
        if let Some(addr) = self.successor.clone() {
            out.push(send(worker, FleetFrame::Standby { addr }));
        }
    }

    fn frame(&mut self, worker: u64, frame: FleetFrame, now: u64, out: &mut Vec<Output>) {
        if !self.connected.contains(&worker) {
            return;
        }
        if !self.standbys.contains(&worker) {
            // A partition window swallows the inbound data plane, `@beat`
            // included so the reaper sees real silence; the worker
            // re-sends once the window heals.
            let data_plane = matches!(
                frame,
                FleetFrame::Next { .. }
                    | FleetFrame::Done { .. }
                    | FleetFrame::Fail { .. }
                    | FleetFrame::Beat { .. }
            );
            if data_plane
                && self
                    .config
                    .net
                    .is_some_and(|plan| plan.partitioned(worker, now))
            {
                self.metrics.net_partitioned += 1;
                return;
            }
            self.last_seen.insert(worker, now);
        }
        match frame {
            FleetFrame::Next { .. } => {
                // The armed-failover drill: no lease leaves the primary
                // until a standby has adopted. Successors are exempt —
                // the drill armed before the primary died.
                if self.config.await_standby && !self.inc.successor && self.successor.is_none() {
                    let wait = FleetFrame::Wait { ms: POLL_MS };
                    self.shim(send(worker, wait), now, out);
                    return;
                }
                match self.table.grant(worker, now) {
                    Grant::Lease(grant) => self.shim(Output::Lease { worker, grant }, now, out),
                    Grant::Wait(ms) => {
                        let wait = FleetFrame::Wait { ms };
                        self.shim(send(worker, wait), now, out);
                    }
                    Grant::Drain => out.push(send(worker, FleetFrame::Drain)),
                }
            }
            // A completion echoing another incarnation's nonce belongs
            // to that incarnation's lease-id space: this incarnation's
            // ids restart at 0 and could collide, so it is fenced.
            FleetFrame::Done { coord, .. } | FleetFrame::Fail { coord, .. }
                if coord != self.inc.coord =>
            {
                self.metrics.stale_fenced += 1;
            }
            FleetFrame::Done { lease, payload, .. } => {
                // A late Done from a stolen lease is merged or refused by
                // the table.
                self.metrics.completions += u64::from(self.table.complete(lease, payload));
            }
            FleetFrame::Fail { lease, reason, .. } => {
                self.table.fail(lease, &reason, now);
            }
            FleetFrame::Adopt { addr, fingerprint } => self.adopt(worker, addr, &fingerprint, out),
            // Beat only refreshes liveness (done above); the rest are
            // coordinator→worker frames echoed back by a confused peer.
            _ => {}
        }
    }

    /// Register a standby whose fingerprint matches, and advertise its
    /// address to every worker; refuse one for a different sweep.
    fn adopt(&mut self, worker: u64, addr: String, fingerprint: &str, out: &mut Vec<Output>) {
        self.last_seen.remove(&worker);
        let want = format!("{:016x}", self.inc.fingerprint);
        if fingerprint != want {
            out.push(Output::Note(format!(
                "rejecting standby at {addr}: fingerprint {fingerprint} does not match this \
                 sweep ({want})"
            )));
            out.push(send(
                worker,
                FleetFrame::Reject {
                    reason: "standby fingerprint mismatch: different experiment".to_string(),
                },
            ));
            out.push(Output::Close { worker });
            self.disconnect(worker);
            return;
        }
        self.standbys.insert(worker);
        out.push(Output::Note(format!(
            "standby coordinator registered at {addr}; workers will fail over to it"
        )));
        for &w in self.connected.difference(&self.standbys) {
            out.push(send(w, FleetFrame::Standby { addr: addr.clone() }));
        }
        self.successor = Some(addr);
    }

    /// Send a data-plane output through the net-fault shim: a partition
    /// window swallows it; otherwise the seeded per-frame fate may drop,
    /// delay or duplicate it. The control plane (welcomes, rejections,
    /// drains, standby traffic) bypasses the shim so chaos converges.
    fn shim(&mut self, output: Output, now: u64, out: &mut Vec<Output>) {
        let (Some(plan), Output::Send { worker, .. } | Output::Lease { worker, .. }) =
            (self.config.net, &output)
        else {
            out.push(output);
            return;
        };
        let worker = *worker;
        if plan.partitioned(worker, now) {
            self.metrics.net_partitioned += 1;
            return;
        }
        let seq = self.net_seq.entry(worker).or_insert(0);
        *seq += 1;
        match plan.fate(worker, *seq) {
            FrameFate::Deliver => out.push(output),
            FrameFate::Drop => self.metrics.net_dropped += 1,
            FrameFate::Delay(ms) => {
                self.metrics.net_delayed += 1;
                self.delayed.push((now + ms, output));
            }
            FrameFate::Duplicate => {
                self.metrics.net_duplicated += 1;
                out.push(output.clone());
                out.push(output);
            }
        }
    }

    /// Declare a worker dead exactly once: report the leases it held,
    /// return them to the pool and drop its connection.
    fn declare_dead(&mut self, worker: u64, now: u64, signal: Option<i32>, out: &mut Vec<Output>) {
        let last_seen = self.last_seen.remove(&worker);
        if !self.reaped.insert(worker) {
            return;
        }
        self.metrics.deaths += 1;
        let cells = self.table.held_cells(worker);
        if !cells.is_empty() {
            out.push(Output::Died {
                worker,
                cells,
                last_seen,
                signal,
            });
        }
        self.table.worker_dead(worker, now);
        if self.connected.contains(&worker) {
            self.disconnect(worker);
            out.push(Output::Close { worker });
        }
    }

    /// Quarantine or respawn a slot whose worker crashed. The caller
    /// has already declared the old worker dead.
    fn crash_slot(&mut self, i: usize, out: &mut Vec<Output>) {
        let done = self.table.is_done();
        let slot = &mut self.slots[i];
        slot.alive = false;
        slot.crashes += 1;
        if done || slot.quarantined {
            return;
        }
        if slot.crashes >= self.config.max_worker_crashes {
            slot.quarantined = true;
            self.metrics.quarantined_slots += 1;
            out.push(Output::Note(format!(
                "worker slot {i} quarantined after {} crash(es)",
                slot.crashes
            )));
            return;
        }
        slot.generation += 1;
        slot.worker = i as u64 + u64::from(self.config.plan.workers) * u64::from(slot.generation);
        slot.alive = true;
        self.metrics.spawned += 1;
        out.push(Output::Spawn {
            slot: i,
            worker: slot.worker,
        });
    }

    /// The housekeeping every step does after its input.
    fn housekeep(&mut self, now: u64, out: &mut Vec<Output>) {
        let (due, later) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition::<Vec<_>, _>(|(at, _)| *at <= now);
        self.delayed = later;
        out.extend(due.into_iter().map(|(_, output)| output));

        let expired = self.table.expire(now);
        if expired > 0 {
            out.push(Output::Note(format!(
                "{expired} lease(s) expired; cells requeued"
            )));
        }
        let silent = |(&worker, &seen): (&u64, &u64)| {
            (now.saturating_sub(seen) > HEARTBEAT_TIMEOUT_MS).then_some(worker)
        };
        let stale: Vec<u64> = self.last_seen.iter().filter_map(silent).collect();
        for worker in stale {
            // Under injected net faults silence usually means a partition:
            // the process is alive and will reconnect, so only its leases
            // move (a real exit still respawns via ChildExit). Otherwise a
            // wedged worker keeps its socket open, staleness is the only
            // way its leases come back, and its slot is replaced.
            let what = match self.config.net {
                Some(_) => " under net faults; leases reassigned, awaiting reconnect",
                None => "; reassigning its leases",
            };
            out.push(Output::Note(format!("worker {worker} went silent{what}")));
            self.declare_dead(worker, now, None, out);
            match self.slot_of(worker) {
                Some(slot) if self.config.net.is_none() => self.crash_slot(slot, out),
                _ => {}
            }
        }

        // The primary proves its own liveness to a registered standby;
        // a lapse is the standby's takeover trigger.
        if !self.standbys.is_empty()
            && now.saturating_sub(self.last_standby_beat) >= HEARTBEAT_EVERY_MS
        {
            self.last_standby_beat = now;
            for &worker in &self.standbys {
                out.push(send(worker, FleetFrame::Beat { worker: 0 }));
            }
        }

        if self.table.is_done() {
            self.drained = true;
            for &worker in &self.connected {
                out.push(send(worker, FleetFrame::Drain));
            }
            return;
        }
        if let Some(at) = self.rescue_at {
            if self.workers_connected() || self.metrics.spawned > 0 {
                // A primary worker made it across; no pool needed.
                self.rescue_at = None;
            } else if now >= at {
                self.rescue_at = None;
                out.push(Output::Note(format!(
                    "no workers reconnected within the rescue window; spawning a fresh \
                     pool of {}",
                    self.config.plan.workers
                )));
                self.spawn_pool(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chopin_faults::net::NetFaultPlan;
    use chopin_faults::SupervisorPolicy;

    const NONCE: u64 = 0xC0DE;

    fn coordinator(workers: u32, cells: usize, deadline_ms: u64) -> Coordinator {
        let mut config = FleetConfig::new(workers);
        config.plan.lease_deadline_ms = Some(deadline_ms);
        with_config(&config, cells, false)
    }

    fn with_config(config: &FleetConfig, cells: usize, successor: bool) -> Coordinator {
        let seeds = (0..cells).map(|i| 0xC0FFEE + i as u64).collect();
        let table = LeaseTable::new(
            seeds,
            SupervisorPolicy::default(),
            config.plan.deadline_ms(),
        );
        let inc = Incarnation {
            coord: NONCE,
            epoch: if successor { 2 } else { 1 },
            fingerprint: 0xF1,
            journal: None,
            successor,
        };
        Coordinator::new(table, config, inc)
    }

    /// A net plan with every fault family off: frames pass, but the
    /// coordinator runs under net faults.
    fn quiet_net(delay_stride: u32) -> NetFaultPlan {
        NetFaultPlan {
            seed: 1,
            drop_stride: 0,
            delay_stride,
            delay_ms: 50,
            dup_stride: 0,
            partition_period_ms: 0,
            partition_ms: 1,
            partition_stride: 1,
        }
    }

    fn hello(c: &mut Coordinator, worker: u64, now: u64) {
        let out = c.step(
            Input::Hello {
                conn: worker + 100,
                worker: Some(worker),
                token: None,
            },
            now,
        );
        assert!(out.contains(&Output::Bind {
            conn: worker + 100,
            worker
        }));
    }

    fn ask(c: &mut Coordinator, worker: u64, now: u64) -> Vec<Output> {
        let frame = FleetFrame::Next { worker };
        c.step(Input::Frame { worker, frame }, now)
    }

    fn leased(out: &[Output]) -> LeaseGrant {
        out.iter()
            .find_map(|o| match o {
                Output::Lease { grant, .. } => Some(*grant),
                _ => None,
            })
            .unwrap_or_else(|| panic!("expected a lease in {out:?}"))
    }

    fn spawns(out: &[Output]) -> Vec<(usize, u64)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Spawn { slot, worker } => Some((*slot, *worker)),
                _ => None,
            })
            .collect()
    }

    fn deaths(out: &[Output]) -> Vec<(u64, Vec<usize>)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Died { worker, cells, .. } => Some((*worker, cells.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_stale_nonce_is_fenced_and_counted() {
        let mut c = coordinator(1, 2, 1_000);
        assert_eq!(spawns(&c.start(0)), vec![(0, 0)]);
        hello(&mut c, 0, 0);
        let first = leased(&ask(&mut c, 0, 0));
        let second = leased(&ask(&mut c, 0, 1));
        let done = |coord| FleetFrame::Done {
            worker: 0,
            lease: first.lease,
            coord,
            payload: "p".to_string(),
        };
        let fail = |coord| FleetFrame::Fail {
            worker: 0,
            lease: second.lease,
            coord,
            reason: "errored: x".to_string(),
        };
        for frame in [done(NONCE + 1), fail(NONCE + 1)] {
            c.step(Input::Frame { worker: 0, frame }, 2);
        }
        assert_eq!(c.metrics().stale_fenced, 2);
        assert_eq!(c.metrics().completions, 0);
        assert_eq!(
            c.table().resolved_count(),
            0,
            "a fenced frame changes nothing"
        );
        c.step(
            Input::Frame {
                worker: 0,
                frame: done(NONCE),
            },
            3,
        );
        assert_eq!(c.metrics().completions, 1);
        assert_eq!(c.table().resolved_count(), 1);
    }

    #[test]
    fn eof_then_a_failed_child_exit_frees_leases_once_and_respawns() {
        let mut c = coordinator(2, 2, 1_000);
        assert_eq!(spawns(&c.start(0)), vec![(0, 0), (1, 1)]);
        hello(&mut c, 0, 0);
        hello(&mut c, 1, 0);
        let grant = leased(&ask(&mut c, 0, 0));
        let eof = c.step(Input::Eof { worker: 0 }, 5);
        assert_eq!(deaths(&eof), vec![(0, vec![grant.cell])]);
        assert!(spawns(&eof).is_empty(), "the reaper, not the EOF, respawns");
        let exit = Input::ChildExit {
            worker: 0,
            clean: false,
            signal: Some(9),
        };
        let out = c.step(exit, 6);
        assert!(
            deaths(&out).is_empty(),
            "the leases were freed exactly once"
        );
        assert_eq!(
            spawns(&out),
            vec![(0, 2)],
            "slot 0 + 2 workers x generation 1"
        );
        assert_eq!(c.metrics().deaths, 1);
        assert_eq!(c.table().metrics().worker_deaths, 1);
        assert_eq!(c.table().metrics().requeued, 1);
        // The next generation dies too: slot 0 + 2 x 2.
        hello(&mut c, 2, 7);
        c.step(Input::Eof { worker: 2 }, 8);
        let exit = Input::ChildExit {
            worker: 2,
            clean: false,
            signal: None,
        };
        assert_eq!(spawns(&c.step(exit, 9)), vec![(0, 4)]);
        assert_eq!(c.metrics().spawned, 4);
    }

    #[test]
    fn a_slot_that_uses_up_its_crash_budget_is_quarantined() {
        let mut c = coordinator(1, 1, 1_000);
        c.start(0);
        let mut worker = 0;
        for crash in 1..=DEFAULT_CRASHES {
            let exit = Input::ChildExit {
                worker,
                clean: false,
                signal: None,
            };
            let out = c.step(exit, u64::from(crash));
            if crash < DEFAULT_CRASHES {
                worker = spawns(&out)[0].1;
                assert_eq!(worker, u64::from(crash), "slot 0 + 1 worker x generation");
            } else {
                assert!(spawns(&out).is_empty());
                assert!(out
                    .iter()
                    .any(|o| matches!(o, Output::Note(n) if n.contains("quarantined after 3"))));
            }
        }
        assert_eq!(c.metrics().quarantined_slots, 1);
        assert_eq!(c.live_slots(), 0);
        assert!(c.is_stranded(), "a one-slot fleet has nobody left");
    }

    const DEFAULT_CRASHES: u32 = crate::config::DEFAULT_MAX_WORKER_CRASHES;

    #[test]
    fn silence_under_net_faults_reassigns_leases_without_a_respawn() {
        let silent = |net: Option<NetFaultPlan>| {
            let mut config = FleetConfig::new(1);
            config.net = net;
            let mut c = with_config(&config, 1, false);
            c.start(0);
            hello(&mut c, 0, 0);
            let grant = leased(&ask(&mut c, 0, 0));
            assert_eq!(c.next_wake(0), Some(HEARTBEAT_TIMEOUT_MS + 1));
            let out = c.step(Input::Tick, HEARTBEAT_TIMEOUT_MS + 1);
            assert_eq!(deaths(&out), vec![(0, vec![grant.cell])]);
            assert!(out.contains(&Output::Close { worker: 0 }));
            assert_eq!(c.table().metrics().requeued, 1);
            spawns(&out)
        };
        assert!(
            silent(Some(quiet_net(0))).is_empty(),
            "a partitioned worker is alive and will reconnect"
        );
        assert_eq!(silent(None), vec![(0, 1)], "a wedged worker is replaced");
    }

    #[test]
    fn a_worker_silent_just_past_the_timeout_is_reaped_exactly_once() {
        let mut c = coordinator(2, 2, 120_000);
        c.start(0);
        hello(&mut c, 0, 0);
        hello(&mut c, 1, 0);
        let beat = |worker| Input::Frame {
            worker,
            frame: FleetFrame::Beat { worker },
        };
        c.step(beat(1), HEARTBEAT_TIMEOUT_MS);
        let closed = |out: &[Output], worker| out.contains(&Output::Close { worker });
        let out = c.step(Input::Tick, HEARTBEAT_TIMEOUT_MS);
        assert!(!closed(&out, 0), "the timeout itself is not yet silence");
        let out = c.step(Input::Tick, HEARTBEAT_TIMEOUT_MS + 1);
        assert!(closed(&out, 0) && !closed(&out, 1), "one tick past: reaped");
        assert_eq!(spawns(&out), vec![(0, 2)]);
        // The hangup a moment later, and a late beat, change nothing.
        c.step(Input::Eof { worker: 0 }, HEARTBEAT_TIMEOUT_MS + 2);
        c.step(beat(0), HEARTBEAT_TIMEOUT_MS + 3);
        assert_eq!(c.metrics().deaths, 1, "declared exactly once");
        assert_eq!(
            c.next_wake(HEARTBEAT_TIMEOUT_MS + 3),
            Some(HEARTBEAT_TIMEOUT_MS - 2)
        );
        // Only a new hello brings the reaped worker back.
        hello(&mut c, 0, 2 * HEARTBEAT_TIMEOUT_MS);
        assert_eq!(c.metrics().revived, 1);
    }

    #[test]
    fn next_wake_is_the_earliest_pending_instant() {
        // Lease deadline (before heartbeat expiry at 10_001).
        let mut c = coordinator(1, 1, 100);
        c.start(0);
        hello(&mut c, 0, 0);
        assert_eq!(
            c.next_wake(0),
            Some(HEARTBEAT_TIMEOUT_MS + 1),
            "heartbeat expiry"
        );
        leased(&ask(&mut c, 0, 0));
        assert_eq!(c.next_wake(30), Some(70), "the lease deadline");

        // A delayed frame falls due before the lease deadline.
        let mut config = FleetConfig::new(1);
        config.plan.lease_deadline_ms = Some(100);
        config.net = Some(quiet_net(1));
        let mut c = with_config(&config, 1, false);
        c.start(0);
        hello(&mut c, 0, 0);
        let out = ask(&mut c, 0, 0);
        assert!(!out.iter().any(|o| matches!(o, Output::Lease { .. })));
        assert_eq!(c.next_wake(10), Some(40), "the delayed lease is due at 50");
        let due = c.step(Input::Tick, 50);
        assert_eq!(leased(&due).cell, 0);

        // The beat owed to a registered standby.
        let mut c = coordinator(1, 1, 120_000);
        c.start(0);
        let out = c.step(
            Input::Hello {
                conn: 7,
                worker: None,
                token: None,
            },
            0,
        );
        let standby = EXTERNAL_WORKER_BASE;
        assert!(out.contains(&Output::Bind {
            conn: 7,
            worker: standby
        }));
        let adopt = FleetFrame::Adopt {
            addr: "127.0.0.1:9".to_string(),
            fingerprint: format!("{:016x}", 0xF1),
        };
        c.step(
            Input::Frame {
                worker: standby,
                frame: adopt,
            },
            0,
        );
        assert_eq!(c.next_wake(100), Some(HEARTBEAT_EVERY_MS - 100));
        let beat = c.step(Input::Tick, HEARTBEAT_EVERY_MS);
        assert!(beat.contains(&Output::Send {
            worker: standby,
            frame: FleetFrame::Beat { worker: 0 }
        }));

        // A successor with nobody reconnected waits for its rescue
        // deadline, then spawns a pool of its own.
        let mut c = with_config(&FleetConfig::new(2), 1, true);
        assert!(spawns(&c.start(0)).is_empty());
        assert_eq!(c.next_wake(1_000), Some(STANDBY_RESCUE_MS - 1_000));
        let out = c.step(Input::Tick, STANDBY_RESCUE_MS);
        assert_eq!(spawns(&out), vec![(0, 0), (1, 1)]);
        assert_eq!(c.next_wake(STANDBY_RESCUE_MS), None, "only inputs remain");
    }

    #[test]
    fn a_wrong_token_is_refused_and_a_resolved_table_drains_everyone() {
        let mut config = FleetConfig::new(1);
        config.token = Some("s3cret".to_string());
        let mut c = with_config(&config, 1, false);
        c.start(0);
        let out = c.step(
            Input::Hello {
                conn: 1,
                worker: Some(0),
                token: Some("guess".to_string()),
            },
            0,
        );
        let rejected = |o: &Output| {
            matches!(
                o,
                Output::Send {
                    frame: FleetFrame::Reject { .. },
                    ..
                }
            )
        };
        assert!(out.iter().any(rejected));
        assert!(matches!(out.last(), Some(Output::Close { .. })));
        assert!(
            !out.contains(&Output::Bind { conn: 1, worker: 0 }),
            "worker 0 keeps its id"
        );
        assert_eq!(c.metrics().auth_rejected, 1);
        let out = c.step(
            Input::Hello {
                conn: 2,
                worker: Some(0),
                token: Some("s3cret".to_string()),
            },
            0,
        );
        assert!(out.contains(&Output::Bind { conn: 2, worker: 0 }));
        let grant = leased(&ask(&mut c, 0, 0));
        let done = FleetFrame::Done {
            worker: 0,
            lease: grant.lease,
            coord: NONCE,
            payload: "p".to_string(),
        };
        let out = c.step(
            Input::Frame {
                worker: 0,
                frame: done,
            },
            1,
        );
        assert!(out.contains(&Output::Send {
            worker: 0,
            frame: FleetFrame::Drain
        }));
        assert!(c.is_drained() && !c.is_stranded());
        assert_eq!(c.live_slots(), 1);
        let exit = Input::ChildExit {
            worker: 0,
            clean: true,
            signal: None,
        };
        c.step(exit, 2);
        assert_eq!(c.live_slots(), 0);
    }
}
