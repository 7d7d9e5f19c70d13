//! The four workloads: which shipped binaries each one runs, with which
//! arguments, and how a seed orders the benchmarks they are given.

use chopin_core::sweep::SweepConfig;
use chopin_core::Suite;

/// A named workload. Each one loads a different harness layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper-figure pipelines: simulate and render do the work.
    Figures,
    /// A journalled sweep plus its resume: the journal does the work.
    Journal,
    /// A cheap sweep with one sandboxed child per cell: spawn does the work.
    Isolated,
    /// A cheap sweep sharded over two fleet workers: transport matters.
    Fleet,
}

impl Workload {
    /// Every workload, in the order the usage note lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::Journal,
        Workload::Isolated,
        Workload::Fleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Journal => "journal",
            Workload::Isolated => "isolated",
            Workload::Fleet => "fleet",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep grid the workload's `runbms`/`lbo` command runs.
    pub fn sweep(self) -> SweepConfig {
        match self {
            Workload::Figures | Workload::Journal => SweepConfig::default(),
            // As cheap as the pre-flight allows, so the layer around the
            // simulation dominates.
            Workload::Isolated | Workload::Fleet => SweepConfig {
                invocations: 1,
                iterations: 2,
                ..SweepConfig::default()
            },
        }
    }
}

/// The benchmarks a run uses, ordered by its seed.
#[derive(Debug, Clone)]
pub struct Order {
    /// All 22 suite benchmarks (the `-b` list of `lbo` and `runbms`).
    pub suite: Vec<String>,
    /// The latency-sensitive benchmarks (the `-b` list of `latency`).
    pub latency: Vec<String>,
}

impl Order {
    /// Seed 0 keeps suite order; any other seed is a Fisher–Yates
    /// shuffle driven by splitmix64, so the same seed always gives the
    /// same order.
    pub fn from_seed(seed: u64) -> Order {
        let suite = Suite::chopin();
        let mut all: Vec<String> = suite.names().iter().map(|s| s.to_string()).collect();
        let mut latency: Vec<String> = suite
            .latency_sensitive()
            .map(|b| b.name().to_string())
            .collect();
        if seed != 0 {
            let mut state = seed;
            shuffle(&mut all, &mut state);
            shuffle(&mut latency, &mut state);
        }
        Order {
            suite: all,
            latency,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle(items: &mut [String], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One shipped-binary invocation of a workload.
#[derive(Debug, Clone)]
pub struct Command {
    /// Binary name under the release target directory.
    pub bin: &'static str,
    /// Its arguments.
    pub args: Vec<String>,
    /// Which reference its standard output must equal.
    pub expect: Expect,
    /// Sweep cells this command simulates (0 for a resume of a complete
    /// journal and for the table/figure renderers).
    pub cells: u64,
}

/// The reference an output is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `runbms` CSV, compared cell by cell.
    Csv,
    /// `lbo` figure text.
    Lbo,
    /// `latency` figure text.
    Latency,
    /// `pca` figure text.
    Pca,
    /// `nominal --table2` text.
    Table2,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// The `runbms` arguments of a cheap-grid sweep.
fn cheap_sweep(order: &Order) -> Vec<String> {
    strings(&[
        "-b",
        &order.suite.join(","),
        "--invocations",
        "1",
        "--iterations",
        "2",
    ])
}

/// The commands one repetition of `workload` runs, in order. `journal`
/// is the journal path the `journal` workload writes and resumes.
pub fn commands(workload: Workload, order: &Order, journal: &str) -> Vec<Command> {
    let cells = |w: Workload| (order.suite.len() * w.sweep().cell_count()) as u64;
    match workload {
        Workload::Figures => vec![
            Command {
                bin: "lbo",
                args: strings(&["-b", &order.suite.join(",")]),
                expect: Expect::Lbo,
                cells: cells(workload),
            },
            Command {
                bin: "latency",
                args: strings(&["-b", &order.latency.join(",")]),
                expect: Expect::Latency,
                cells: (order.latency.len() * LATENCY_CELLS_PER_BENCHMARK) as u64,
            },
            Command {
                bin: "pca",
                args: Vec::new(),
                expect: Expect::Pca,
                cells: 0,
            },
            Command {
                bin: "nominal",
                args: strings(&["--table2"]),
                expect: Expect::Table2,
                cells: 0,
            },
        ],
        Workload::Journal => {
            let sweep = strings(&["-b", &order.suite.join(","), "--journal", journal]);
            let mut resume = sweep.clone();
            resume.push("--resume".to_string());
            vec![
                Command {
                    bin: "runbms",
                    args: sweep,
                    expect: Expect::Csv,
                    cells: cells(workload),
                },
                Command {
                    bin: "runbms",
                    args: resume,
                    expect: Expect::Csv,
                    cells: 0,
                },
            ]
        }
        Workload::Isolated => {
            let mut args = cheap_sweep(order);
            args.extend(strings(&["--isolation", "process"]));
            vec![Command {
                bin: "runbms",
                args,
                expect: Expect::Csv,
                cells: cells(workload),
            }]
        }
        Workload::Fleet => {
            let mut args = cheap_sweep(order);
            args.extend(strings(&["--fleet", "2"]));
            vec![Command {
                bin: "runbms",
                args,
                expect: Expect::Csv,
                cells: cells(workload),
            }]
        }
    }
}

/// The command `resume_s` times, and the command that must complete a
/// journal for it first. For `journal` that is its own resume leg, whose
/// journal the workload's first leg writes. Every other workload gets a
/// resume probe: its sweep command (`lbo` for `figures`) re-run with
/// `--journal J --resume` over a journal the same command completed.
pub fn resume_probe(
    workload: Workload,
    order: &Order,
    journal: &str,
) -> (Option<Command>, Command) {
    let mut cmds = commands(workload, order, journal);
    if workload == Workload::Journal {
        return (None, cmds.swap_remove(1));
    }
    let mut write = cmds.swap_remove(0);
    write.args.extend(strings(&["--journal", journal]));
    let mut resume = write.clone();
    resume.args.push("--resume".to_string());
    resume.cells = 0;
    (Some(write), resume)
}

/// Cells of one `latency` benchmark: every collector at the default
/// heaps (2× and 6×).
pub const LATENCY_CELLS_PER_BENCHMARK: usize = 10;

/// The heap factors `latency` measures by default.
pub const LATENCY_HEAPS: [f64; 2] = [2.0, 6.0];
