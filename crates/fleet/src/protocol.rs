//! The wire protocol between the fleet coordinator and its workers.
//!
//! The channel is a local TCP stream, framed line by line with the same
//! torn-line discipline as the sandbox heartbeat pipe
//! ([`chopin_sandbox::protocol`]): a worker SIGKILLed mid-write leaves at
//! worst one torn line, which the coordinator ignores, never a corrupt
//! stream. Escaped fields (fingerprints, journal paths, rendered cell
//! requests and responses) use the sandbox codec
//! ([`escape`]/[`unescape`]), which also folds spaces into `\s` — fleet
//! frames split fields on spaces, so a space left raw in a *non-final*
//! field (the welcome fingerprint when a journal base follows it) would
//! shift every later field over by one on parse. The proptest round-trip below pins the codec over arbitrary
//! payloads.
//!
//! Frames (one per line, newline-terminated):
//!
//! | frame                             | direction | meaning                                   |
//! |-----------------------------------|-----------|-------------------------------------------|
//! | `@hello [wid\|-] [token]`         | w → c     | join; locally spawned workers carry their assigned id; `-` holds the id slot when only a token follows |
//! | `@welcome <wid> <fp> <coord> <epoch> [j]` | c → w | admitted: worker id, sweep fingerprint, coordinator incarnation + epoch, journal base |
//! | `@reject <reason>`                | c → w     | refused (bad token, fingerprint mismatch); exit, do not retry |
//! | `@next <wid>`                     | w → c     | request work                              |
//! | `@lease <id> <attempt> <p>`       | c → w     | a lease: run the escaped cell request `<p>` |
//! | `@wait <ms>`                      | c → w     | nothing grantable yet; ask again in `ms`  |
//! | `@drain`                          | c → w     | matrix resolved; exit cleanly             |
//! | `@done <wid> <id> <coord> <p>`    | w → c     | lease completed, escaped response `<p>`, granting coordinator echoed |
//! | `@fail <wid> <id> <coord> <reason>` | w → c   | the *cell* failed (panic/error), escaped reason |
//! | `@beat <wid>`                     | w → c     | heartbeat: the worker is alive            |
//! | `@adopt <addr> <fp>`              | s → c     | a standby registers its listener address  |
//! | `@standby <addr>`                 | c → w     | the advertised successor address workers reconnect to |
//!
//! Worker *deaths* have no frame: they surface as EOF on the stream (the
//! fast path) or as lease-deadline expiry (the wedged-worker path), and
//! the coordinator reassigns the victim's leases either way.
//!
//! **Epoch fencing.** Every coordinator incarnation mints a fresh
//! `coord` nonce and a logical `epoch`, carries both in `@welcome`, and
//! requires `@done`/`@fail` to echo the `coord` it granted under. A
//! successor coordinator's lease table restarts lease ids at 0, so a
//! stale completion from the previous incarnation could otherwise merge
//! the wrong payload into whichever cell reused that id — the echo
//! extends the generation-checked late-result rejection across
//! hand-offs. The `-` placeholder in optional trailing fields is
//! reserved: journal bases and listener addresses never equal `-`.

use chopin_sandbox::protocol::{escape, unescape};

/// Environment variable that marks a process as a fleet worker.
pub const ENV_FLEET_WORKER: &str = "CHOPIN_FLEET_WORKER";
/// Coordinator address (`host:port`) for a spawned fleet worker.
pub const ENV_FLEET_ADDR: &str = "CHOPIN_FLEET_ADDR";
/// Worker id assigned by the coordinator to a spawned worker.
pub const ENV_FLEET_WORKER_ID: &str = "CHOPIN_FLEET_WORKER_ID";
/// Worker-kill storm spec (`KIND[:SEED[:STRIDE]]`) forwarded to workers.
pub const ENV_FLEET_STORM: &str = "CHOPIN_FLEET_STORM";
/// Test hook: the coordinator SIGKILLs itself after this many recorded
/// completions, so the resume path can be exercised against real
/// binaries.
pub const ENV_FLEET_DIE_AFTER: &str = "CHOPIN_FLEET_DIE_AFTER";
/// Per-run auth token forwarded to spawned workers; external workers
/// take it from `--fleet-token`.
pub const ENV_FLEET_TOKEN: &str = "CHOPIN_FLEET_TOKEN";

/// The token gate applied to every `Hello`/`Adopt`: admitted iff the
/// coordinator expects no token, or the offered token matches exactly.
///
/// This tiny function is deliberately public and pure: it is the single
/// admission decision shared by the shipped transport and the
/// `chopin-model` intruder transition (rule R1403), so the checker
/// exercises the exact predicate production runs.
#[must_use]
pub fn admission(expected: Option<&str>, offered: Option<&str>) -> bool {
    match expected {
        None => true,
        Some(want) => offered == Some(want),
    }
}

/// A parsed fleet protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetFrame {
    /// Worker → coordinator: join the fleet. Locally spawned workers
    /// carry the id the coordinator assigned them via the environment;
    /// remote workers (`--fleet-connect`) send `None` and are assigned
    /// one in the welcome. The token, when the run has one, gates
    /// admission ([`admission`]).
    Hello {
        /// Pre-assigned worker id, if any.
        worker: Option<u64>,
        /// Per-run auth token, if the run has one.
        token: Option<String>,
    },
    /// Coordinator → worker: admitted.
    Welcome {
        /// The worker's id for the rest of the session.
        worker: u64,
        /// The sweep fingerprint every per-worker journal must carry.
        fingerprint: String,
        /// This coordinator incarnation's nonce, echoed in `Done`/`Fail`
        /// so a successor can fence stale completions.
        coord: u64,
        /// Logical hand-off depth: the primary serves epoch 1, each
        /// takeover increments it.
        epoch: u32,
        /// Journal base path; the worker appends to `<base>.w<id>`.
        journal: Option<String>,
    },
    /// Coordinator → worker: refused. The worker must exit without
    /// retrying; the reason is a clean protocol error, not chaos.
    Reject {
        /// Why admission was refused.
        reason: String,
    },
    /// Worker → coordinator: request work.
    Next {
        /// The requesting worker.
        worker: u64,
    },
    /// Coordinator → worker: a lease on one cell.
    Lease {
        /// Lease id, echoed back in `Done`/`Fail`.
        lease: u64,
        /// 1-based attempt number for this cell (journal provenance).
        attempt: u32,
        /// Rendered cell request.
        payload: String,
    },
    /// Coordinator → worker: nothing grantable; back off and re-ask.
    Wait {
        /// Suggested delay before the next `Next`, in milliseconds.
        ms: u64,
    },
    /// Coordinator → worker: the matrix is resolved; exit cleanly.
    Drain,
    /// Worker → coordinator: a lease completed.
    Done {
        /// The completing worker.
        worker: u64,
        /// The lease being completed.
        lease: u64,
        /// The coordinator nonce the lease was granted under.
        coord: u64,
        /// Rendered cell response.
        payload: String,
    },
    /// Worker → coordinator: the *cell* failed (panicked or errored);
    /// counts against the cell's retry budget, unlike a worker death.
    Fail {
        /// The reporting worker.
        worker: u64,
        /// The failed lease.
        lease: u64,
        /// The coordinator nonce the lease was granted under.
        coord: u64,
        /// `panicked:<msg>` or `errored:<msg>`.
        reason: String,
    },
    /// Worker → coordinator: heartbeat.
    Beat {
        /// The live worker.
        worker: u64,
    },
    /// Standby → coordinator: register as the hand-off successor. The
    /// coordinator validates the fingerprint and token, replies with a
    /// `Welcome`, and broadcasts the address as `Standby` to workers.
    Adopt {
        /// The standby's own listener address workers reconnect to.
        addr: String,
        /// The standby's recomputed sweep fingerprint; a mismatch is a
        /// different experiment and is rejected.
        fingerprint: String,
    },
    /// Coordinator → worker: the advertised successor address. Workers
    /// remember it and reconnect there (with exponential backoff) if the
    /// coordinator goes silent.
    Standby {
        /// The successor's listener address.
        addr: String,
    },
}

/// Render a frame as its wire line (without the trailing newline).
#[must_use]
pub fn render(frame: &FleetFrame) -> String {
    match frame {
        FleetFrame::Hello {
            worker: None,
            token: None,
        } => "@hello".to_string(),
        FleetFrame::Hello {
            worker: Some(w),
            token: None,
        } => format!("@hello {w}"),
        FleetFrame::Hello { worker, token } => {
            let id = worker.map_or("-".to_string(), |w| w.to_string());
            match token {
                None => format!("@hello {id}"),
                Some(t) => format!("@hello {id} {}", escape(t)),
            }
        }
        FleetFrame::Welcome {
            worker,
            fingerprint,
            coord,
            epoch,
            journal,
        } => match journal {
            None => format!("@welcome {worker} {} {coord} {epoch}", escape(fingerprint)),
            Some(j) => format!(
                "@welcome {worker} {} {coord} {epoch} {}",
                escape(fingerprint),
                escape(j)
            ),
        },
        FleetFrame::Reject { reason } => format!("@reject {}", escape(reason)),
        FleetFrame::Next { worker } => format!("@next {worker}"),
        FleetFrame::Lease {
            lease,
            attempt,
            payload,
        } => format!("@lease {lease} {attempt} {}", escape(payload)),
        FleetFrame::Wait { ms } => format!("@wait {ms}"),
        FleetFrame::Drain => "@drain".to_string(),
        FleetFrame::Done {
            worker,
            lease,
            coord,
            payload,
        } => format!("@done {worker} {lease} {coord} {}", escape(payload)),
        FleetFrame::Fail {
            worker,
            lease,
            coord,
            reason,
        } => format!("@fail {worker} {lease} {coord} {}", escape(reason)),
        FleetFrame::Beat { worker } => format!("@beat {worker}"),
        FleetFrame::Adopt { addr, fingerprint } => {
            format!("@adopt {} {}", escape(addr), escape(fingerprint))
        }
        FleetFrame::Standby { addr } => format!("@standby {}", escape(addr)),
    }
}

/// Split `line` into at most `n` space-separated words, the last keeping
/// the rest of the line verbatim.
fn words(line: &str, n: usize) -> Vec<&str> {
    line.splitn(n, ' ').collect()
}

/// Parse one line into a frame. Returns `None` for anything that is not
/// a protocol frame (stray prints, torn lines from a dying worker).
#[must_use]
pub fn parse(line: &str) -> Option<FleetFrame> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line == "@hello" {
        return Some(FleetFrame::Hello {
            worker: None,
            token: None,
        });
    }
    if let Some(rest) = line.strip_prefix("@hello ") {
        let parts = words(rest, 2);
        let worker = if parts[0] == "-" {
            None
        } else {
            Some(parts[0].parse().ok()?)
        };
        return Some(FleetFrame::Hello {
            worker,
            token: parts.get(1).map(|t| unescape(t)),
        });
    }
    if let Some(rest) = line.strip_prefix("@welcome ") {
        let parts = words(rest, 5);
        if parts.len() < 4 {
            return None;
        }
        return Some(FleetFrame::Welcome {
            worker: parts[0].parse().ok()?,
            fingerprint: unescape(parts[1]),
            coord: parts[2].parse().ok()?,
            epoch: parts[3].parse().ok()?,
            journal: parts.get(4).map(|j| unescape(j)),
        });
    }
    if let Some(rest) = line.strip_prefix("@reject ") {
        return Some(FleetFrame::Reject {
            reason: unescape(rest),
        });
    }
    if let Some(rest) = line.strip_prefix("@next ") {
        return rest.parse().ok().map(|worker| FleetFrame::Next { worker });
    }
    if let Some(rest) = line.strip_prefix("@lease ") {
        let parts = words(rest, 3);
        if parts.len() != 3 {
            return None;
        }
        return Some(FleetFrame::Lease {
            lease: parts[0].parse().ok()?,
            attempt: parts[1].parse().ok()?,
            payload: unescape(parts[2]),
        });
    }
    if let Some(rest) = line.strip_prefix("@wait ") {
        return rest.parse().ok().map(|ms| FleetFrame::Wait { ms });
    }
    if line == "@drain" {
        return Some(FleetFrame::Drain);
    }
    if let Some(rest) = line.strip_prefix("@done ") {
        let parts = words(rest, 4);
        if parts.len() != 4 {
            return None;
        }
        return Some(FleetFrame::Done {
            worker: parts[0].parse().ok()?,
            lease: parts[1].parse().ok()?,
            coord: parts[2].parse().ok()?,
            payload: unescape(parts[3]),
        });
    }
    if let Some(rest) = line.strip_prefix("@fail ") {
        let parts = words(rest, 4);
        if parts.len() != 4 {
            return None;
        }
        return Some(FleetFrame::Fail {
            worker: parts[0].parse().ok()?,
            lease: parts[1].parse().ok()?,
            coord: parts[2].parse().ok()?,
            reason: unescape(parts[3]),
        });
    }
    if let Some(rest) = line.strip_prefix("@beat ") {
        return rest.parse().ok().map(|worker| FleetFrame::Beat { worker });
    }
    if let Some(rest) = line.strip_prefix("@adopt ") {
        let parts = words(rest, 2);
        if parts.len() != 2 {
            return None;
        }
        return Some(FleetFrame::Adopt {
            addr: unescape(parts[0]),
            fingerprint: unescape(parts[1]),
        });
    }
    if let Some(rest) = line.strip_prefix("@standby ") {
        return Some(FleetFrame::Standby {
            addr: unescape(rest),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = [
            FleetFrame::Hello {
                worker: None,
                token: None,
            },
            FleetFrame::Hello {
                worker: Some(7),
                token: None,
            },
            FleetFrame::Hello {
                worker: None,
                token: Some("s3cret token".to_string()),
            },
            FleetFrame::Hello {
                worker: Some(7),
                token: Some("s3cret".to_string()),
            },
            FleetFrame::Welcome {
                worker: 3,
                fingerprint: "00c0ffee00c0ffee".to_string(),
                coord: 0xdead_beef,
                epoch: 1,
                journal: None,
            },
            FleetFrame::Welcome {
                worker: 3,
                fingerprint: "00c0ffee00c0ffee".to_string(),
                coord: 42,
                epoch: 2,
                journal: Some("results/run with space.journal".to_string()),
            },
            FleetFrame::Reject {
                reason: "auth token mismatch".to_string(),
            },
            FleetFrame::Next { worker: 0 },
            FleetFrame::Lease {
                lease: 41,
                attempt: 2,
                payload: "bench=fop\ncollector=G1".to_string(),
            },
            FleetFrame::Wait { ms: 25 },
            FleetFrame::Drain,
            FleetFrame::Done {
                worker: 1,
                lease: 41,
                coord: 7,
                payload: "{\"samples\":[1.0,\n2.0]}".to_string(),
            },
            FleetFrame::Fail {
                worker: 1,
                lease: 41,
                coord: 7,
                reason: "panicked:index out of bounds\r\n".to_string(),
            },
            FleetFrame::Beat { worker: 255 },
            FleetFrame::Adopt {
                addr: "10.0.0.7:4321".to_string(),
                fingerprint: "00c0ffee00c0ffee".to_string(),
            },
            FleetFrame::Standby {
                addr: "10.0.0.7:4321".to_string(),
            },
        ];
        for frame in frames {
            let line = render(&frame);
            assert!(
                !line.contains('\n'),
                "frame must stay on one line: {line:?}"
            );
            assert_eq!(parse(&line), Some(frame), "line {line:?}");
        }
    }

    // Palette biased toward codec-hostile characters: separators, the
    // escape character itself, and the letters that follow a backslash
    // in escape sequences (so `\` + `s` adjacency is exercised).
    fn field() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..10, 0..12).prop_map(|codes| {
            codes
                .iter()
                .map(|c| match c {
                    0 => 'a',
                    1 => ' ',
                    2 => '\\',
                    3 => '\n',
                    4 => '\r',
                    5 => 's',
                    6 => 'n',
                    7 => 'r',
                    8 => 'é',
                    _ => '@',
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn arbitrary_payloads_round_trip_in_every_escaped_field(
            fp in field(),
            journal in field(),
            payload in field(),
            worker in 0u64..1000,
            lease in 0u64..1000,
            attempt in 1u32..9,
        ) {
            let frames = [
                FleetFrame::Welcome {
                    worker,
                    fingerprint: fp.clone(),
                    coord: lease,
                    epoch: attempt,
                    journal: None,
                },
                // The non-final escaped field: a raw space or newline in
                // the fingerprint here would shift the journal field.
                FleetFrame::Welcome {
                    worker,
                    fingerprint: fp.clone(),
                    coord: lease,
                    epoch: attempt,
                    journal: Some(journal.clone()),
                },
                FleetFrame::Lease {
                    lease,
                    attempt,
                    payload: payload.clone(),
                },
                FleetFrame::Done {
                    worker,
                    lease,
                    coord: worker,
                    payload: payload.clone(),
                },
                FleetFrame::Fail {
                    worker,
                    lease,
                    coord: worker,
                    reason: payload.clone(),
                },
                FleetFrame::Reject {
                    reason: payload.clone(),
                },
                // Both Adopt fields are escaped and non-final/final.
                FleetFrame::Adopt {
                    addr: fp.clone(),
                    fingerprint: journal.clone(),
                },
                FleetFrame::Standby {
                    addr: payload.clone(),
                },
            ];
            for frame in frames {
                let line = render(&frame);
                prop_assert!(
                    !line.contains('\n') && !line.contains('\r'),
                    "frame must stay on one line: {line:?}"
                );
                prop_assert_eq!(parse(&line), Some(frame.clone()), "line {:?}", line);
            }
        }
    }

    #[test]
    fn field_codec_keeps_spaces_out_of_the_field_framing() {
        // Regression shape for the asymmetry the round-trip found: a
        // fingerprint containing a space, followed by a journal base.
        let frame = FleetFrame::Welcome {
            worker: 3,
            fingerprint: "finger print".to_string(),
            coord: 9,
            epoch: 1,
            journal: Some("results/run.journal".to_string()),
        };
        let line = render(&frame);
        assert_eq!(line, "@welcome 3 finger\\sprint 9 1 results/run.journal");
        assert_eq!(parse(&line), Some(frame));
        assert_eq!(unescape(&escape("\\s \\n\r\n")), "\\s \\n\r\n");
    }

    #[test]
    fn torn_and_stray_lines_are_ignored() {
        for line in [
            "",
            "warning: something",
            "@leas",
            "@lease 41",
            "@lease 41 x payload",
            "@done 1",
            "@done one 41 7 p",
            "@done 1 41 p",
            "@hello -3",
            "@welcome 3 fp",
            "@welcome 3 fp x 1",
            "@adopt onlyaddr",
            "@unknown x",
        ] {
            assert_eq!(parse(line), None, "line {line:?}");
        }
    }

    #[test]
    fn the_admission_gate_is_exact() {
        assert!(admission(None, None));
        assert!(admission(None, Some("anything")));
        assert!(admission(Some("t0k3n"), Some("t0k3n")));
        assert!(!admission(Some("t0k3n"), None));
        assert!(!admission(Some("t0k3n"), Some("t0k3n ")));
        assert!(!admission(Some("t0k3n"), Some("wrong")));
    }
}
