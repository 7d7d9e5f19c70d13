//! Deterministic simulation of the fleet: the shipped [`Coordinator`]
//! driven on a virtual clock by scripted in-process workers, through
//! seeded worker-kill storms ([`WorkerStormPlan`]) and seeded wire
//! faults ([`NetFaultPlan`]: drop, delay, duplicate, partition).
//!
//! Every seed must merge exactly the payloads of the fault-free run,
//! and two runs of the same seed must end in the same coordinator
//! snapshot — the "same inputs, same state hash" check.

use std::collections::BTreeMap;

use chopin_faults::net::NetFaultPlan;
use chopin_faults::SupervisorPolicy;
use chopin_fleet::coordinator::CoordinatorMetrics;
use chopin_fleet::lease::CellResolution;
use chopin_fleet::{
    parse_storm_flag, Coordinator, FleetConfig, FleetFrame, Incarnation, Input, LeaseTable, Output,
    WorkerStormPlan,
};

const WORKERS: u32 = 4;
const CELLS: usize = 24;
const LEASE_DEADLINE_MS: u64 = 1_000;
/// One-way wire latency.
const WIRE_MS: u64 = 1;
/// How long a worker takes to run one cell.
const CELL_MS: u64 = 20;
/// A worker's read timeout: it re-sends its pending reply and `@next`.
const RESEND_MS: u64 = 2_000;
/// The longest wait a worker honours before re-asking.
const MAX_WAIT_MS: u64 = 1_000;
/// A run that has not drained by then is stuck.
const HORIZON_MS: u64 = 600_000;
const NONCE: u64 = 7;

enum Event {
    /// An input reaches the coordinator.
    Coord(Input),
    /// A frame reaches a worker.
    Worker(u64, FleetFrame),
    /// A worker finishes running a lease.
    Finish(u64),
    /// A worker's read timeout fires (valid if nothing arrived since).
    Timeout(u64, u64),
    /// A worker re-asks after a `@wait`.
    Ask(u64),
}

/// A scripted worker, following the real worker's session rules.
#[derive(Default)]
struct Worker {
    alive: bool,
    leases: u32,
    last_lease: Option<u64>,
    pending: Option<FleetFrame>,
    /// The lease being run and the incarnation that granted it.
    running: Option<(u64, u64, String)>,
    /// Frames that arrived while the worker was busy running a cell.
    backlog: Vec<FleetFrame>,
    /// The instant the last frame arrived (read-timeout bookkeeping).
    heard: u64,
    coord: u64,
}

struct Sim {
    now: u64,
    seq: u64,
    events: BTreeMap<(u64, u64), Event>,
    workers: BTreeMap<u64, Worker>,
    storm: Option<WorkerStormPlan>,
    coordinator: Coordinator,
}

impl Sim {
    fn new(seed: Option<u64>) -> Sim {
        let mut config = FleetConfig::new(WORKERS);
        // Every seed must converge: no slot runs out of crash budget.
        config.max_worker_crashes = 64;
        config.net = seed.and_then(|seed| NetFaultPlan::preset("storm", seed));
        let storm = seed.map(|seed| parse_storm_flag(&format!("kill:{seed}:3")).unwrap());
        let seeds = (0..CELLS).map(|i| 0xCE11 + i as u64).collect();
        let table = LeaseTable::new(seeds, SupervisorPolicy::default(), LEASE_DEADLINE_MS);
        let inc = Incarnation {
            coord: NONCE,
            epoch: 1,
            fingerprint: 0xF1,
            journal: None,
            successor: false,
        };
        Sim {
            now: 0,
            seq: 0,
            events: BTreeMap::new(),
            workers: BTreeMap::new(),
            storm,
            coordinator: Coordinator::new(table, &config, inc),
        }
    }

    fn at(&mut self, delay: u64, event: Event) {
        self.seq += 1;
        self.events.insert((self.now + delay, self.seq), event);
    }

    fn send_up(&mut self, worker: u64, frame: FleetFrame) {
        self.at(WIRE_MS, Event::Coord(Input::Frame { worker, frame }));
    }

    fn hello(&mut self, worker: u64, delay: u64) {
        let hello = Input::Hello {
            conn: worker,
            worker: Some(worker),
            token: None,
        };
        self.at(delay, Event::Coord(hello));
    }

    /// The process ends: the coordinator reads the EOF, then the reaper.
    fn exit(&mut self, worker: u64, clean: bool) {
        if let Some(w) = self.workers.get_mut(&worker) {
            w.alive = false;
        }
        self.at(WIRE_MS, Event::Coord(Input::Eof { worker }));
        let exit = Input::ChildExit {
            worker,
            clean,
            signal: (!clean).then_some(9),
        };
        self.at(2 * WIRE_MS, Event::Coord(exit));
    }

    fn carry_out(&mut self, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send { worker, frame } => {
                    self.at(WIRE_MS, Event::Worker(worker, frame));
                }
                Output::Lease { worker, grant } => {
                    let frame = FleetFrame::Lease {
                        lease: grant.lease,
                        attempt: grant.attempt,
                        payload: format!("cell{}", grant.cell),
                    };
                    self.at(WIRE_MS, Event::Worker(worker, frame));
                }
                Output::Spawn { worker, .. } => {
                    let alive = Worker {
                        alive: true,
                        ..Worker::default()
                    };
                    self.workers.insert(worker, alive);
                    self.hello(worker, 5);
                }
                // A live worker whose connection was closed reconnects.
                Output::Close { worker } => {
                    if self.workers.get(&worker).is_some_and(|w| w.alive) {
                        self.hello(worker, 100);
                    }
                }
                Output::Bind { .. } | Output::Died { .. } | Output::Note(_) => {}
            }
        }
    }

    fn arm_timeout(&mut self, worker: u64) {
        let heard = self.now;
        self.workers.entry(worker).or_default().heard = heard;
        self.at(RESEND_MS, Event::Timeout(worker, heard));
    }

    /// Re-send the unacknowledged reply (if any) and ask for work.
    fn resend(&mut self, worker: u64) {
        if let Some(pending) = self.workers[&worker].pending.clone() {
            self.send_up(worker, pending);
        }
        self.send_up(worker, FleetFrame::Next { worker });
    }

    fn on_frame(&mut self, id: u64, frame: FleetFrame) {
        let Some(w) = self.workers.get_mut(&id).filter(|w| w.alive) else {
            return;
        };
        if w.running.is_some() {
            w.backlog.push(frame);
            return;
        }
        self.arm_timeout(id);
        let w = self.workers.get_mut(&id).unwrap();
        match frame {
            FleetFrame::Welcome { coord, .. } => {
                if w.coord != coord {
                    w.pending = None;
                    w.last_lease = None;
                    w.coord = coord;
                }
                self.resend(id);
            }
            FleetFrame::Wait { ms } => self.at(ms.clamp(1, MAX_WAIT_MS), Event::Ask(id)),
            FleetFrame::Lease { lease, payload, .. } => {
                if w.last_lease == Some(lease) {
                    // A duplicated Lease: the work already ran; re-ack.
                    self.resend(id);
                    return;
                }
                w.last_lease = Some(lease);
                w.pending = None;
                w.leases += 1;
                let leases = w.leases;
                if self
                    .storm
                    .is_some_and(|s| s.is_victim(id) && leases >= s.kill_after_leases)
                {
                    self.exit(id, false);
                    return;
                }
                w.running = Some((lease, w.coord, payload));
                self.at(CELL_MS, Event::Finish(id));
            }
            FleetFrame::Drain => self.exit(id, true),
            _ => {}
        }
    }

    fn on_finish(&mut self, id: u64) {
        let Some(w) = self.workers.get_mut(&id).filter(|w| w.alive) else {
            return;
        };
        let Some((lease, coord, payload)) = w.running.take() else {
            return;
        };
        let done = FleetFrame::Done {
            worker: id,
            lease,
            coord,
            payload: format!("result({payload})"),
        };
        w.pending = Some(done);
        let backlog = std::mem::take(&mut w.backlog);
        self.arm_timeout(id);
        self.resend(id);
        for frame in backlog {
            self.on_frame(id, frame);
        }
    }

    /// Run to the drain and the exit of every local worker.
    fn run(mut self) -> (u64, String, CoordinatorMetrics, Vec<Option<String>>) {
        let outputs = self.coordinator.start(0);
        self.carry_out(outputs);
        while !(self.coordinator.is_drained() && self.coordinator.live_slots() == 0) {
            let wake = self.coordinator.next_wake(self.now).map(|ms| self.now + ms);
            let next = self.events.keys().next().map(|&(at, _)| at);
            let input = match (wake, next) {
                (Some(wake), Some(at)) if wake < at => {
                    self.now = wake;
                    Input::Tick
                }
                (Some(wake), None) => {
                    self.now = wake;
                    Input::Tick
                }
                (_, Some(_)) => {
                    let ((at, _), event) = self.events.pop_first().unwrap();
                    self.now = at;
                    match event {
                        Event::Coord(input) => input,
                        Event::Worker(id, frame) => {
                            self.on_frame(id, frame);
                            continue;
                        }
                        Event::Finish(id) => {
                            self.on_finish(id);
                            continue;
                        }
                        Event::Timeout(id, heard) => {
                            let w = &self.workers[&id];
                            if w.alive && w.running.is_none() && w.heard == heard {
                                self.arm_timeout(id);
                                self.resend(id);
                            }
                            continue;
                        }
                        Event::Ask(id) => {
                            if self.workers[&id].alive {
                                self.send_up(id, FleetFrame::Next { worker: id });
                            }
                            continue;
                        }
                    }
                }
                (None, None) => panic!("the simulation is stuck at {}ms", self.now),
            };
            assert!(self.now < HORIZON_MS, "no drain within the horizon");
            let outputs = self.coordinator.step(input, self.now);
            self.carry_out(outputs);
        }
        let merged = self
            .coordinator
            .table()
            .resolutions()
            .into_iter()
            .map(|r| match r {
                CellResolution::Completed { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        let state = self.coordinator.snapshot(self.now);
        (self.now, state, self.coordinator.metrics(), merged)
    }
}

#[test]
fn storms_merge_the_fault_free_payloads_and_replay_identically() {
    let (_, _, _, expected) = Sim::new(None).run();
    let want: Vec<Option<String>> = (0..CELLS)
        .map(|cell| Some(format!("result(cell{cell})")))
        .collect();
    assert_eq!(expected, want, "the fault-free run completes every cell");
    let (mut deaths, mut faults) = (0, 0);
    for seed in 1..=500u64 {
        let (end, state, metrics, merged) = Sim::new(Some(seed)).run();
        assert_eq!(merged, expected, "seed {seed} merged different payloads");
        let again = Sim::new(Some(seed)).run();
        assert_eq!(
            (end, &state, metrics),
            (again.0, &again.1, again.2),
            "seed {seed} is not deterministic"
        );
        deaths += u64::from(metrics.deaths > 0);
        faults += u64::from(metrics.net_dropped + metrics.net_delayed > 0);
    }
    assert!(
        deaths > 250,
        "the storms kill workers in most seeds ({deaths})"
    );
    assert!(faults > 250, "the wire misbehaves in most seeds ({faults})");
}
