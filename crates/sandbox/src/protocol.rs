//! The wire protocol between a sandbox parent and its worker child.
//!
//! The channel is the child's stdout, framed line by line so a partially
//! written crash leaves at worst one torn line (ignored) rather than a
//! corrupt stream. The request travels on stdin; configuration travels in
//! environment variables so the worker can apply resource limits before
//! touching the request at all.
//!
//! Frames (one per line, newline-terminated):
//!
//! | frame        | meaning                                             |
//! |--------------|-----------------------------------------------------|
//! | `@hb`        | heartbeat: the worker is alive and scheduled        |
//! | `@ok <p>`    | handler finished, escaped payload `<p>`             |
//! | `@err <p>`   | handler returned an error (transient, retryable)    |
//! | `@panic <p>` | handler panicked; `<p>` is the panic message        |
//!
//! Payloads are escaped (`\` → `\\`, newline → `\n`, CR → `\r`, space →
//! `\s`) so any string survives the line framing. The fleet protocol
//! (`chopin_fleet::protocol`) reuses the same codec for its
//! space-separated fields, which is why spaces are folded too.

/// Environment variable that marks a process as a sandbox worker.
pub const ENV_WORKER: &str = "CHOPIN_SANDBOX_WORKER";
/// Heartbeat interval for the worker, in milliseconds.
pub const ENV_HEARTBEAT_MS: &str = "CHOPIN_SANDBOX_HEARTBEAT_MS";
/// RLIMIT_AS (address space) for the worker, in bytes.
pub const ENV_RLIMIT_AS: &str = "CHOPIN_SANDBOX_RLIMIT_AS";
/// RLIMIT_CPU for the worker, in seconds.
pub const ENV_RLIMIT_CPU: &str = "CHOPIN_SANDBOX_RLIMIT_CPU";
/// Test hook: suppress heartbeats entirely so heartbeat-loss handling can
/// be exercised deterministically.
pub const ENV_NO_HEARTBEAT: &str = "CHOPIN_SANDBOX_NO_HEARTBEAT";

/// A parsed protocol frame read from the worker's stdout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The worker is alive.
    Heartbeat,
    /// The handler completed with the given payload.
    Ok(String),
    /// The handler failed with a transient error.
    Err(String),
    /// The handler panicked with the given message.
    Panic(String),
}

/// Escape a payload so it survives both the line framing (`\n`, `\r`)
/// and space-separated field framing (`\s`).
#[must_use]
pub fn escape(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for c in payload.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ' ' => out.push_str("\\s"),
            other => out.push(other),
        }
    }
    out
}

/// Invert [`escape`]. Unknown escapes pass through verbatim, so a torn
/// escape never corrupts the payload.
#[must_use]
pub fn unescape(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('s') => out.push(' '),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Render a frame as its wire line (without the trailing newline).
#[must_use]
pub fn render(frame: &Frame) -> String {
    match frame {
        Frame::Heartbeat => "@hb".to_string(),
        Frame::Ok(p) => format!("@ok {}", escape(p)),
        Frame::Err(p) => format!("@err {}", escape(p)),
        Frame::Panic(p) => format!("@panic {}", escape(p)),
    }
}

/// Parse one stdout line into a frame. Returns `None` for anything that
/// is not a protocol frame (stray prints, torn lines from a crash).
#[must_use]
pub fn parse(line: &str) -> Option<Frame> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line == "@hb" {
        return Some(Frame::Heartbeat);
    }
    if let Some(rest) = line.strip_prefix("@ok ") {
        return Some(Frame::Ok(unescape(rest)));
    }
    if line == "@ok" {
        return Some(Frame::Ok(String::new()));
    }
    if let Some(rest) = line.strip_prefix("@err ") {
        return Some(Frame::Err(unescape(rest)));
    }
    if let Some(rest) = line.strip_prefix("@panic ") {
        return Some(Frame::Panic(unescape(rest)));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_wire_format() {
        let frames = [
            Frame::Heartbeat,
            Frame::Ok("{\"samples\":[]}".to_string()),
            Frame::Ok(String::new()),
            Frame::Err("boom\nwith newline".to_string()),
            Frame::Panic("back\\slash and \r return".to_string()),
        ];
        for frame in frames {
            let line = render(&frame);
            assert!(!line.contains('\n'), "frame must stay on one line");
            assert_eq!(parse(&line), Some(frame));
        }
    }

    #[test]
    fn non_protocol_lines_are_ignored() {
        assert_eq!(parse(""), None);
        assert_eq!(parse("warning: something"), None);
        assert_eq!(parse("@unknown x"), None);
        // A torn final line (crash mid-write) must not parse as a result.
        assert_eq!(parse("@o"), None);
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("a\\zb"), "a\\zb");
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }
}
