//! The serve transport: one handler loop per connection, driving the
//! transport-independent [`Server`] through its
//! [`handle_line`](Server::handle_line) seam. [`serve_listener`] runs
//! it for every accepted TCP connection, [`serve_stream`] once over a
//! pipe such as the CLI's stdin/stdout. Either way the protocol is
//! line-delimited JSON, one response line per request line, in order,
//! and every connection gets:
//!
//! * **bounded buffering** — at most `max_request_bytes` plus one 4 KB
//!   read of an unterminated line is ever buffered; a client that
//!   streams more without a newline, or goes quiet or hangs up past the
//!   cap, is refused and disconnected *before* the bytes accumulate (a
//!   complete-but-oversized or non-UTF-8 line is still answered with
//!   the codec's structured error and the connection survives, also
//!   when its newline arrives in a later read);
//! * **cooperative shutdown** — when the caller's `stop` flag rises
//!   (SIGINT) or any client sends the `shutdown` op, every handler
//!   finishes the requests already buffered on its connection and
//!   returns, so the caller can checkpoint open cursors.
//!
//! Sockets also get what a pipe's single client does not need:
//!
//! * **connection cap** — at most [`TransportOptions::max_conns`]
//!   handler threads; an excess connection receives one structured
//!   error line and is closed, never silently queued;
//! * **idle timeout** — a connection that sends no bytes for
//!   [`TransportOptions::idle_timeout`] gets a structured error line
//!   and is closed, so a stalled client cannot pin a handler thread.
//!
//! The handler loop never blocks indefinitely: reads tick at
//! [`TransportOptions::poll_interval`] so the stop flag is observed
//! between requests, and socket writes carry the idle timeout so a
//! client that stops draining responses cannot pin the thread.

use std::io::{Cursor, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use super::codec::Response;
use super::Server;

/// Socket-transport tuning knobs.
#[derive(Clone, Debug)]
pub struct TransportOptions {
    /// Concurrent connections served; excess connections get one
    /// structured error line and are closed.
    pub max_conns: usize,
    /// A connection silent for this long is sent a structured error
    /// line and closed. Also bounds how long a write to a non-draining
    /// client may stall.
    pub idle_timeout: Duration,
    /// How often blocked reads and the accept loop wake to observe the
    /// stop flag — the upper bound on shutdown latency for an idle
    /// server.
    pub poll_interval: Duration,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            max_conns: 256,
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// What a [`serve_listener`] or [`serve_stream`] run did, returned when
/// it stops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections admitted to a handler loop.
    pub accepted: u64,
    /// Connections refused by the `max_conns` cap.
    pub rejected: u64,
    /// Request lines dispatched to the server.
    pub requests: u64,
    /// Connections closed by the idle timeout.
    pub idle_disconnects: u64,
    /// Connections closed for streaming an unterminated oversized line.
    pub oversize_disconnects: u64,
}

/// Shared mutable transport state: the handler loops' counters plus
/// the internal shutdown latch the `shutdown` op raises.
#[derive(Debug, Default)]
struct Shared {
    accepted: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    idle_disconnects: AtomicU64,
    oversize_disconnects: AtomicU64,
    active: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn stopping(&self, stop: &AtomicBool) -> bool {
        stop.load(Ordering::Relaxed) || self.shutdown.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> TransportStats {
        TransportStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            oversize_disconnects: self.oversize_disconnects.load(Ordering::Relaxed),
        }
    }
}

/// Serves `server` over `listener` until `stop` rises or a client sends
/// the `shutdown` op, then drains: the listener stops accepting, every
/// handler finishes the request lines already buffered on its
/// connection, and the accumulated [`TransportStats`] are returned.
///
/// `stop` is the *external* stop request (typically the CLI's SIGINT
/// flag). The `shutdown` op latches a separate internal flag, so the
/// caller can distinguish "a client asked us to stop" (exit 0) from
/// "the operator interrupted us" (exit 75) by re-reading its own flag
/// after this returns.
///
/// Handler threads are scoped, so a panic in one propagates instead of
/// leaking a wedged connection; the `Server`'s own `handle_line` seam
/// never panics on wire input (`tests/serve_codec.rs` fuzzes it).
pub fn serve_listener<const D: usize>(
    server: &Server<'_, D>,
    listener: TcpListener,
    opts: &TransportOptions,
    stop: &AtomicBool,
) -> std::io::Result<TransportStats> {
    listener.set_nonblocking(true)?;
    let shared = Shared::default();
    let mut fatal = None;
    std::thread::scope(|scope| {
        while !shared.stopping(stop) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(opts.poll_interval);
                    continue;
                }
                Err(e) => {
                    // Accept failures (fd exhaustion, a torn-down
                    // listener) end the run; in-flight connections
                    // still drain below.
                    fatal = Some(e);
                    break;
                }
            };
            if shared.active.load(Ordering::Relaxed) >= opts.max_conns {
                // Best-effort: the client may already be gone.
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let error = format!("server at capacity: {} connections", opts.max_conns);
                let _ = write_error(&mut &stream, error);
                continue;
            }
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            shared.active.fetch_add(1, Ordering::Relaxed);
            let shared = &shared;
            scope.spawn(move || {
                let _ = stream.set_nodelay(true);
                // The listener is nonblocking; on platforms where
                // accepted sockets inherit that, the handler loop would
                // spin. Blocking + read timeout is the mode it is
                // written for.
                let _ = stream.set_nonblocking(false);
                let timeouts = (stream.set_read_timeout(Some(opts.poll_interval)))
                    .and(stream.set_write_timeout(Some(opts.idle_timeout)));
                if timeouts.is_ok() {
                    let idle = Some(opts.idle_timeout);
                    handle_conn(server, &stream, &stream, idle, stop, shared);
                }
                shared.active.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // Leaving the scope joins every handler: the drain barrier.
    });
    match fatal {
        Some(e) => Err(e),
        None => Ok(shared.snapshot()),
    }
}

/// Serves `server` over one pipe (the CLI's stdin/stdout) as a single
/// connection on the caller's thread, like one TCP connection but with
/// no idle timeout. A detached thread reads `input` into a bounded
/// channel, since a blocked pipe read may never wake for a signal (glibc
/// installs handlers with `SA_RESTART`); the loop polls that channel at
/// the default [`TransportOptions::poll_interval`] to observe `stop`.
pub fn serve_stream<const D: usize>(
    server: &Server<'_, D>,
    mut input: impl Read + Send + 'static,
    output: impl Write,
    stop: &AtomicBool,
) -> TransportStats {
    // At most 16 chunks of 4 KB read ahead of the handler loop.
    let (tx, rx) = std::sync::mpsc::sync_channel(16);
    std::thread::spawn(move || {
        let mut chunk = [0u8; 4096];
        loop {
            let n = match input.read(&mut chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            if tx.send(chunk[..n].to_vec()).is_err() {
                return;
            }
        }
    });
    let shared = Shared::default();
    shared.accepted.store(1, Ordering::Relaxed);
    let chunks = ChunkReader {
        rx,
        pending: Cursor::new(Vec::new()),
        poll_interval: TransportOptions::default().poll_interval,
    };
    handle_conn(server, chunks, output, None, stop, &shared);
    shared.snapshot()
}

/// The handler loop's view of a [`serve_stream`] reader thread: `Ok(0)`
/// once that thread ended, `TimedOut` after `poll_interval` without data.
struct ChunkReader {
    rx: Receiver<Vec<u8>>,
    pending: Cursor<Vec<u8>>,
    poll_interval: Duration,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // The reader thread never sends an empty chunk.
        if self.pending.position() == self.pending.get_ref().len() as u64 {
            match self.rx.recv_timeout(self.poll_interval) {
                Ok(chunk) => self.pending = Cursor::new(chunk),
                Err(RecvTimeoutError::Timeout) => return Err(std::io::ErrorKind::TimedOut.into()),
                Err(RecvTimeoutError::Disconnected) => return Ok(0),
            }
        }
        self.pending.read(buf)
    }
}

/// One connection's handler loop: read lines, dispatch each through
/// [`Server::handle_line`], write each response line back. Returns (and
/// thereby closes the connection) at the end of input (answering a last
/// line that lacks its newline), on any I/O error, the idle timeout
/// (when set), an unterminated oversized line, or once a stop is
/// requested and the already-buffered lines have been answered. Reads
/// that time out (`WouldBlock`/`TimedOut`) are where stops are seen.
fn handle_conn<const D: usize>(
    server: &Server<'_, D>,
    mut input: impl Read,
    mut output: impl Write,
    idle_timeout: Option<Duration>,
    stop: &AtomicBool,
    shared: &Shared,
) {
    let max_line = server.options().max_request_bytes;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    // What must never happen is buffering an unterminated line without
    // bound. An over-cap tail may still be a complete line whose newline
    // is in flight (the codec answers that with a survivable error), so
    // it is refused only once the input goes quiet or ends, or once it
    // outgrows the cap by a whole read chunk.
    let refuse = |mut output: &mut dyn Write| {
        shared.oversize_disconnects.fetch_add(1, Ordering::Relaxed);
        let error = format!("unterminated request exceeds {max_line} bytes; closing connection");
        let _ = write_error(&mut output, error);
    };
    loop {
        let eof = match input.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return,
            Ok(0) if buf.len() > max_line => return refuse(&mut output),
            Ok(0) => {
                buf.push(b'\n');
                true
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                false
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.len() > max_line {
                    return refuse(&mut output);
                }
                if shared.stopping(stop) {
                    // Drain point: nothing buffered is in flight (every
                    // complete line was answered below), so close.
                    return;
                }
                if let Some(idle) = idle_timeout.filter(|&t| last_activity.elapsed() >= t) {
                    shared.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                    let error = format!("idle timeout: no request in {} ms", idle.as_millis());
                    let _ = write_error(&mut output, error);
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        last_activity = Instant::now();
        while let Some(line) = split_line(&mut buf) {
            if line.is_empty() {
                continue; // blank keep-alive lines are inert
            }
            shared.requests.fetch_add(1, Ordering::Relaxed);
            let (resp, shutdown) = server.handle_line(&line);
            if write_line(&mut output, &resp).is_err() {
                return;
            }
            if shutdown {
                shared.shutdown.store(true, Ordering::Relaxed);
                return;
            }
        }
        if buf.len() > max_line + chunk.len() {
            return refuse(&mut output);
        }
        if eof || shared.stopping(stop) {
            return;
        }
    }
}

/// Writes one encoded response line. The stream's write timeout bounds
/// how long a non-draining client can stall this.
fn write_line(output: &mut impl Write, resp: &Response) -> std::io::Result<()> {
    let mut line = resp.encode();
    line.push('\n');
    output.write_all(line.as_bytes())
}

/// Writes one structured error line about the connection itself.
fn write_error(output: &mut impl Write, error: String) -> std::io::Result<()> {
    write_line(output, &Response::Error { id: None, error })
}

/// Splits the first complete line off `buf`, stripping the `\n` and an
/// optional preceding `\r` (so `nc -C`/telnet-style clients work).
/// Returns `None` when no newline is buffered yet.
fn split_line(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let rest = buf.split_off(pos + 1);
    let mut line = std::mem::replace(buf, rest);
    line.pop(); // the `\n`
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_line_takes_one_line_and_keeps_the_rest() {
        let mut buf = b"{\"op\":\"stats\"}\n{\"op\":".to_vec();
        assert_eq!(
            split_line(&mut buf).as_deref(),
            Some(&b"{\"op\":\"stats\"}"[..])
        );
        assert_eq!(buf, b"{\"op\":");
        assert_eq!(split_line(&mut buf), None);
        buf.extend_from_slice(b"\"x\"}\r\n");
        assert_eq!(
            split_line(&mut buf).as_deref(),
            Some(&b"{\"op\":\"x\"}"[..])
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn split_line_yields_empty_lines_verbatim() {
        let mut buf = b"\n\r\nx\n".to_vec();
        assert_eq!(split_line(&mut buf).as_deref(), Some(&b""[..]));
        assert_eq!(split_line(&mut buf).as_deref(), Some(&b""[..]));
        assert_eq!(split_line(&mut buf).as_deref(), Some(&b"x"[..]));
        assert_eq!(split_line(&mut buf), None);
    }
}
