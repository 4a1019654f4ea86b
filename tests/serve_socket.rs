//! The transport end to end: many concurrent connections drive the
//! shared server over real sockets and every response is bit-identical
//! to the serial equivalent; the connection cap, idle timeout, and
//! request-size bound all fire as structured errors; a stop → drain →
//! checkpoint → restart → resume cycle over TCP loses nothing; and the
//! stream entry point (the CLI's stdin/stdout) answers a byte stream
//! exactly as one socket connection does.
//!
//! Serial expectations come from a second `Server` over the same trees
//! fed the same request lines through `handle_line` one at a time —
//! the transport must add nothing and lose nothing relative to that.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amdj_core::serve::{
    snap_file_name,
    transport::{serve_listener, serve_stream, TransportOptions, TransportStats},
    ServeOptions, Server,
};
use amdj_core::JoinConfig;
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::RTree;
use amdj_tests::build_trees;

fn workload() -> (RTree<2>, RTree<2>) {
    let a = uniform_points(600, unit_universe(), 71);
    let b = clustered_points(600, 16, 0.02, unit_universe(), 72);
    build_trees(&a, &b)
}

fn serve_opts(cfg: &JoinConfig) -> ServeOptions {
    ServeOptions {
        base_config: cfg.clone(),
        ..ServeOptions::default()
    }
}

/// Fast-polling transport options so tests don't wait on 25 ms ticks.
fn fast_topts() -> TransportOptions {
    TransportOptions {
        poll_interval: Duration::from_millis(2),
        ..TransportOptions::default()
    }
}

/// One line-oriented client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Sends one request line and reads one response line.
    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line().expect("response line")
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    /// Reads one response line; `None` on EOF.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read: {e}"),
        }
    }

    /// True once the server has closed this connection.
    fn at_eof(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.reader.read(&mut byte), Ok(0))
    }
}

/// The deterministic tail of a response line: everything from
/// `"results":` on. Bit-identity of distances falls out of the codec's
/// shortest-round-trip float printing; what's excluded is only
/// `queue_wait_ns`, which legitimately differs under contention.
fn results_suffix(line: &str) -> &str {
    let at = line
        .find("\"results\":")
        .unwrap_or_else(|| panic!("no results in {line}"));
    &line[at..]
}

/// Runs `body` with a listener serving `server` on an ephemeral port,
/// then stops the transport and returns its stats.
fn with_listener<R>(
    server: &Server<'_, 2>,
    topts: &TransportOptions,
    body: impl FnOnce(std::net::SocketAddr, &AtomicBool) -> R,
) -> (TransportStats, R) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = {
            let stop = &stop;
            scope.spawn(move || serve_listener(server, listener, topts, stop))
        };
        // A panicking body must still stop the listener, or the scope's
        // implicit join would hang the test instead of failing it.
        let guard = StopOnDrop(&stop);
        let out = body(addr, &stop);
        drop(guard);
        let stats = handle.join().expect("listener thread").expect("serve ok");
        (stats, out)
    })
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The request lines one query issues, in order. The mix cycles kdj
/// (plain / aggressive / threaded) and idj open → pull → close, the
/// same shapes the bench serves.
fn query_lines(i: usize) -> Vec<String> {
    let id = format!("q{i:03}");
    match i % 4 {
        0 => vec![format!("{{\"op\":\"kdj\",\"id\":\"{id}\",\"k\":64}}")],
        1 => vec![format!(
            "{{\"op\":\"kdj\",\"id\":\"{id}\",\"k\":32,\"aggressive\":true}}"
        )],
        2 => {
            let mut lines = vec![format!(
                "{{\"op\":\"idj_open\",\"id\":\"{id}\",\"take\":40}}"
            )];
            for _ in 0..3 {
                lines.push(format!("{{\"op\":\"idj_pull\",\"id\":\"{id}\",\"n\":16}}"));
            }
            lines.push(format!("{{\"op\":\"idj_close\",\"id\":\"{id}\"}}"));
            lines
        }
        _ => vec![format!(
            "{{\"op\":\"kdj\",\"id\":\"{id}\",\"k\":16,\"threads\":2}}"
        )],
    }
}

/// 128 mixed queries over 16 concurrent socket connections, each
/// response bit-identical to a serial server fed the same lines.
#[test]
fn concurrent_socket_queries_match_serial_bit_for_bit() {
    const QUERIES: usize = 128;
    const CONNS: usize = 16;
    let (r, s) = workload();
    let cfg = JoinConfig::default();

    // Serial ground truth: same lines, one at a time, no transport.
    let serial = Server::new(&r, &s, serve_opts(&cfg));
    let mut want: Vec<Vec<String>> = Vec::with_capacity(QUERIES);
    for i in 0..QUERIES {
        let mut resps = Vec::new();
        for line in query_lines(i) {
            let (resp, stop) = serial.handle_line(line.as_bytes());
            assert!(!stop);
            let encoded = resp.encode();
            assert!(encoded.contains("\"ok\":true"), "serial {i}: {encoded}");
            resps.push(encoded);
        }
        want.push(resps);
    }

    let server = Server::new(&r, &s, serve_opts(&cfg));
    let got: Mutex<Vec<Option<Vec<String>>>> = Mutex::new(vec![None; QUERIES]);
    let (stats, ()) = with_listener(&server, &fast_topts(), |addr, _| {
        std::thread::scope(|scope| {
            for c in 0..CONNS {
                let got = &got;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for i in (0..QUERIES).filter(|i| i % CONNS == c) {
                        let mut resps = Vec::new();
                        for line in query_lines(i) {
                            let resp = client.request(&line);
                            assert!(resp.contains("\"ok\":true"), "query {i} over tcp: {resp}");
                            resps.push(resp);
                        }
                        got.lock().unwrap()[i] = Some(resps);
                    }
                });
            }
        });
    });
    assert!(stats.accepted >= CONNS as u64, "all connections admitted");
    assert_eq!(stats.rejected, 0, "nothing hit the cap");
    assert!(
        stats.requests >= QUERIES as u64,
        "every query line counted: {stats:?}"
    );

    let got = got.into_inner().unwrap();
    for (i, (want, got)) in want.iter().zip(got.iter()).enumerate() {
        let got = got.as_ref().unwrap_or_else(|| panic!("query {i} ran"));
        assert_eq!(want.len(), got.len(), "query {i}: response count");
        for (w, g) in want.iter().zip(got) {
            if let Some(suffix) = w.find("\"results\":").map(|_| results_suffix(w)) {
                assert_eq!(
                    suffix,
                    results_suffix(g),
                    "query {i}: socket results identical to serial"
                );
            } else {
                // Lines without results (open/close acks) carry no
                // contention-variable fields: full equality.
                assert_eq!(w, g, "query {i}: ack identical to serial");
            }
        }
    }
}

/// The `max_conns` cap refuses the excess connection with one
/// structured error line, and a slot freed by a departing client is
/// reusable.
#[test]
fn connection_cap_rejects_excess_then_recovers() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let topts = TransportOptions {
        max_conns: 2,
        ..fast_topts()
    };
    let (stats, ()) = with_listener(&server, &topts, |addr, _| {
        let mut a = Client::connect(addr);
        let mut b = Client::connect(addr);
        // A served response proves each occupies a handler slot.
        assert!(a.request("{\"op\":\"stats\"}").contains("\"ok\":true"));
        assert!(b.request("{\"op\":\"stats\"}").contains("\"ok\":true"));

        let mut over = Client::connect(addr);
        let refusal = over.read_line().expect("refusal line");
        assert!(
            refusal.contains("\"ok\":false")
                && refusal.contains("server at capacity: 2 connections"),
            "structured rejection: {refusal}"
        );
        assert!(over.at_eof(), "refused connection is closed");

        // Free a slot; the next client must eventually be admitted
        // (the handler notices the close on its next poll tick).
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut retry = Client::connect(addr);
            let line = retry.read_line_or_request();
            if line.contains("\"ok\":true") {
                break;
            }
            assert!(
                line.contains("server at capacity"),
                "either admitted or capacity-refused: {line}"
            );
            assert!(
                Instant::now() < deadline,
                "freed slot never became reusable"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(b);
    });
    assert!(stats.rejected >= 1, "the cap fired: {stats:?}");
    assert!(stats.accepted >= 3, "admissions resumed: {stats:?}");
}

impl Client {
    /// Sends a stats request best-effort and returns whatever line
    /// comes back — the served response or a pre-queued refusal (whose
    /// connection the server already closed, so the write may fail).
    fn read_line_or_request(&mut self) -> String {
        let _ = self.stream.write_all(b"{\"op\":\"stats\"}\n");
        self.read_line().expect("some line")
    }
}

/// A silent connection is told why and disconnected; the server keeps
/// serving others.
#[test]
fn idle_connection_is_disconnected_with_a_structured_error() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let topts = TransportOptions {
        idle_timeout: Duration::from_millis(100),
        ..fast_topts()
    };
    let (stats, ()) = with_listener(&server, &topts, |addr, _| {
        let mut idle = Client::connect(addr);
        assert!(idle.request("{\"op\":\"stats\"}").contains("\"ok\":true"));
        // Now go silent; the server must speak first.
        let line = idle.read_line().expect("timeout line");
        assert!(
            line.contains("\"ok\":false") && line.contains("idle timeout"),
            "structured idle disconnect: {line}"
        );
        assert!(idle.at_eof(), "idle connection is closed");
        // The transport is still alive for a prompt client.
        let mut fresh = Client::connect(addr);
        assert!(fresh.request("{\"op\":\"stats\"}").contains("\"ok\":true"));
    });
    assert!(stats.idle_disconnects >= 1, "idle timeout fired: {stats:?}");
}

/// `max_request_bytes` holds at the socket layer: a complete oversized
/// line is a survivable structured error, an unterminated oversized
/// stream is refused before it buffers without bound.
#[test]
fn oversized_requests_are_bounded_at_the_socket() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            max_request_bytes: 256,
            ..serve_opts(&cfg)
        },
    );
    let (stats, ()) = with_listener(&server, &fast_topts(), |addr, _| {
        // A complete-but-oversized line: the codec refuses it, the
        // connection survives.
        let mut client = Client::connect(addr);
        let fat = format!("{{\"op\":\"kdj\",\"id\":\"{}\",\"k\":8}}", "x".repeat(300));
        let resp = client.request(&fat);
        assert!(
            resp.contains("\"ok\":false") && resp.contains("exceeds the 256-byte cap"),
            "structured oversize error: {resp}"
        );
        assert!(
            client.request("{\"op\":\"stats\"}").contains("\"ok\":true"),
            "connection survives a complete oversized line"
        );

        // An unterminated oversized stream: refused and disconnected
        // before the line can grow without bound.
        let mut hog = Client::connect(addr);
        hog.stream
            .write_all(&vec![b'x'; 1000])
            .expect("write flood");
        let line = hog.read_line().expect("refusal line");
        assert!(
            line.contains("\"ok\":false")
                && line.contains("unterminated request exceeds 256 bytes"),
            "structured flood refusal: {line}"
        );
        assert!(hog.at_eof(), "flooding connection is closed");
    });
    assert!(
        stats.oversize_disconnects >= 1,
        "flood disconnect counted: {stats:?}"
    );
}

/// A complete oversized line whose newline arrives in a later read is
/// still the codec's survivable error, not an unterminated refusal: the
/// read in flight does not time out before the newline lands.
#[test]
fn an_oversized_line_split_before_its_newline_survives() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(
        &r,
        &s,
        ServeOptions {
            max_request_bytes: 256,
            ..serve_opts(&cfg)
        },
    );
    let topts = TransportOptions {
        poll_interval: Duration::from_millis(500),
        ..TransportOptions::default()
    };
    let (stats, ()) = with_listener(&server, &topts, |addr, _| {
        let mut client = Client::connect(addr);
        let fat = format!("{{\"op\":\"kdj\",\"id\":\"{}\",\"k\":8}}", "x".repeat(300));
        client.stream.write_all(fat.as_bytes()).expect("write line");
        std::thread::sleep(Duration::from_millis(20));
        client.stream.write_all(b"\n").expect("write newline");
        let resp = client.read_line().expect("response line");
        assert!(
            resp.contains("\"ok\":false") && resp.contains("exceeds the 256-byte cap"),
            "structured oversize error: {resp}"
        );
        assert!(
            client.request("{\"op\":\"stats\"}").contains("\"ok\":true"),
            "connection survives a split oversized line"
        );
    });
    assert_eq!(stats.oversize_disconnects, 0, "{stats:?}");
}

/// External stop (the CLI's SIGINT path) drains in-flight cursors into
/// a checkpoint directory; a restarted server resumes them over a new
/// socket and the remaining stream is bit-identical to the
/// uninterrupted serial one.
#[test]
fn stop_checkpoint_restart_resume_over_tcp_is_bit_identical() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let dir = std::env::temp_dir().join(format!("amdj-serve-socket-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Uninterrupted serial stream: open once, pull to exhaustion.
    let serial = Server::new(&r, &s, serve_opts(&cfg));
    let open = "{\"op\":\"idj_open\",\"id\":\"c\",\"take\":60}";
    let pull = "{\"op\":\"idj_pull\",\"id\":\"c\",\"n\":15}";
    let (resp, _) = serial.handle_line(open.as_bytes());
    assert!(resp.encode().contains("\"ok\":true"));
    let mut want = Vec::new();
    loop {
        let (resp, _) = serial.handle_line(pull.as_bytes());
        let line = resp.encode();
        assert!(line.contains("\"ok\":true"), "serial pull: {line}");
        let done = line.contains("\"done\":true");
        want.push(line);
        if done {
            break;
        }
    }
    assert_eq!(want.len(), 4, "60 results in four 15-pulls");

    // Live server 1: open and pull the first window over TCP, then the
    // operator interrupts.
    let server1 = Server::new(&r, &s, serve_opts(&cfg));
    let (_, ()) = with_listener(&server1, &fast_topts(), |addr, _| {
        let mut client = Client::connect(addr);
        assert!(client.request(open).contains("\"ok\":true"));
        let first = client.request(pull);
        assert_eq!(
            results_suffix(&want[0]),
            results_suffix(&first),
            "first window over tcp matches serial"
        );
        // with_listener raises the external stop on exit — the SIGINT
        // path — and the scoped handlers drain before it returns.
    });
    let ids = server1
        .checkpoint_open_cursors(&dir)
        .expect("shutdown checkpoint");
    assert_eq!(ids, vec!["c"], "the open cursor checkpointed");
    // The pull over the wire suspended the join mid-way.
    let bytes = std::fs::read(dir.join(snap_file_name("c"))).expect("snapshot file");
    let snap = amdj_core::EngineSnapshot::<2>::decode(&bytes).expect("own snapshot decodes");
    assert!(snap.frontier_len() > 0, "a real mid-join suspension");

    // Restart: fresh server, resume from the state dir, keep pulling
    // over a fresh socket.
    let server2 = Server::new(&r, &s, serve_opts(&cfg));
    let resumed = server2.resume_cursors_from(&dir).expect("resume");
    assert_eq!(resumed, vec!["c"], "the checkpointed cursor resumed");
    let (_, ()) = with_listener(&server2, &fast_topts(), |addr, _| {
        let mut client = Client::connect(addr);
        for expected in &want[1..] {
            let resp = client.request(pull);
            assert_eq!(
                results_suffix(expected),
                results_suffix(&resp),
                "resumed window over tcp matches the uninterrupted stream"
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `shutdown` op stops the whole transport from a client, without
/// the external stop flag ever rising.
#[test]
fn shutdown_op_over_tcp_stops_the_listener() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let (stats, ()) = with_listener(&server, &fast_topts(), |addr, stop| {
        let mut client = Client::connect(addr);
        assert!(client.request("{\"op\":\"stats\"}").contains("\"ok\":true"));
        let ack = client.request("{\"op\":\"shutdown\"}");
        assert_eq!(ack, "{\"ok\":true,\"op\":\"shutdown\"}");
        assert!(client.at_eof(), "connection closed after shutdown ack");
        // The listener must return on its own — the external stop (the
        // SIGINT flag in the CLI) never rose, which is how the caller
        // tells a client-requested shutdown (exit 0) from an interrupt
        // (exit 75).
        assert!(
            !stop.load(Ordering::Relaxed),
            "shutdown op does not involve the external stop flag"
        );
    });
    assert!(stats.requests >= 2, "both requests served: {stats:?}");
}

/// Feeds `input` to a fresh connection through the TCP listener, closes
/// the sending half, and returns every byte the server wrote back.
fn socket_transcript(server: &Server<'_, 2>, input: &[u8]) -> (Vec<u8>, TransportStats) {
    let (stats, out) = with_listener(server, &fast_topts(), |addr, _| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(input).expect("write input");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read responses");
        out
    });
    (out, stats)
}

/// Feeds `input` through the stream entry point and returns every byte
/// written to the output.
fn stream_transcript(server: &Server<'_, 2>, input: &[u8]) -> (Vec<u8>, TransportStats) {
    let mut out = Vec::new();
    let stop = AtomicBool::new(false);
    let stats = serve_stream(server, Cursor::new(input.to_vec()), &mut out, &stop);
    (out, stats)
}

/// A fixed mix of good and bad input reaches the stream entry point and
/// a socket connection as the same bytes and gets the same bytes back:
/// valid kdj/idj requests, a line that is not UTF-8, blank and `\r\n`
/// lines, a complete oversized line (a structured error; the session
/// goes on), and an unterminated oversized tail (one error line, then
/// the connection ends).
#[test]
fn stream_and_socket_answer_the_same_mix_byte_for_byte() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let opts = ServeOptions {
        max_request_bytes: 256,
        ..serve_opts(&cfg)
    };
    let mut mix = Vec::new();
    mix.extend_from_slice(b"{\"op\":\"kdj\",\"id\":\"k1\",\"k\":16}\n");
    mix.extend_from_slice(b"\xff\xfe\n");
    mix.extend_from_slice(b"\n\r\n");
    mix.extend_from_slice(b"{\"op\":\"idj_open\",\"id\":\"c\",\"take\":30}\r\n");
    mix.extend_from_slice(
        format!(
            "{{\"op\":\"kdj\",\"id\":\"{}\",\"k\":8}}\n",
            "x".repeat(300)
        )
        .as_bytes(),
    );
    mix.extend_from_slice(b"{\"op\":\"idj_pull\",\"id\":\"c\",\"n\":12}\n");
    mix.extend_from_slice(b"{\"op\":\"kdj\",\"id\":\"k2\",\"k\":8,\"aggressive\":false}\n");
    mix.extend_from_slice(b"{\"op\":\"idj_pull\",\"id\":\"c\",\"n\":12}\n");
    mix.extend_from_slice(b"{\"op\":\"idj_close\",\"id\":\"c\"}\n");
    mix.extend_from_slice(&[b'x'; 1000]);

    let (streamed, stream_stats) = stream_transcript(&Server::new(&r, &s, opts.clone()), &mix);
    let (socketed, socket_stats) = socket_transcript(&Server::new(&r, &s, opts), &mix);
    let text = String::from_utf8(streamed.clone()).expect("responses are UTF-8");
    assert_eq!(
        text,
        String::from_utf8(socketed).expect("responses are UTF-8"),
        "stream and socket transcripts are byte-identical"
    );

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 9, "one line per non-blank request: {text}");
    for (i, line) in lines.iter().enumerate() {
        let ok = !matches!(i, 1 | 3 | 8);
        assert_eq!(line.contains("\"ok\":true"), ok, "line {i}: {line}");
    }
    assert!(lines[1].contains("bad request at byte 0"), "{}", lines[1]);
    assert!(
        lines[3].contains("exceeds the 256-byte cap"),
        "{}",
        lines[3]
    );
    assert!(
        lines[8].contains("unterminated request exceeds 256 bytes"),
        "{}",
        lines[8]
    );
    assert_eq!(stream_stats.requests, 8, "{stream_stats:?}");
    assert_eq!(stream_stats.oversize_disconnects, 1, "{stream_stats:?}");
    assert_eq!(stream_stats.requests, socket_stats.requests);
    assert_eq!(
        stream_stats.oversize_disconnects,
        socket_stats.oversize_disconnects
    );
}

/// A request cut off by the end of input is answered on both
/// transports, as the pipe's last line always was.
#[test]
fn a_final_line_without_newline_is_answered() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let input = b"{\"op\":\"kdj\",\"id\":\"a\",\"k\":4}\n{\"op\":\"kdj\",\"id\":\"b\",\"k\":4}";
    let (streamed, stats) = stream_transcript(&Server::new(&r, &s, serve_opts(&cfg)), input);
    let (socketed, _) = socket_transcript(&Server::new(&r, &s, serve_opts(&cfg)), input);
    assert_eq!(streamed, socketed);
    let text = String::from_utf8(streamed).expect("responses are UTF-8");
    assert_eq!(text.lines().count(), 2, "{text}");
    assert!(text.contains("\"id\":\"b\""), "{text}");
    assert_eq!(stats.requests, 2);
}

/// A pipe whose writer is still open: reads block until the test sends
/// a chunk, and end once every sender is dropped.
struct ChannelPipe {
    rx: Receiver<Vec<u8>>,
    pending: Cursor<Vec<u8>>,
}

impl ChannelPipe {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        ChannelPipe {
            rx,
            pending: Cursor::new(Vec::new()),
        }
    }
}

impl Read for ChannelPipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.pending.position() == self.pending.get_ref().len() as u64 {
            match self.rx.recv() {
                Ok(chunk) => self.pending = Cursor::new(chunk),
                Err(_) => return Ok(0),
            }
        }
        self.pending.read(buf)
    }
}

/// The `shutdown` op ends a stream session whose input is still open,
/// and the stats count every answered line.
#[test]
fn shutdown_op_ends_a_stream_session() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let (tx, rx) = channel();
    tx.send(b"{\"op\":\"kdj\",\"id\":\"q\",\"k\":8}\n\n{\"op\":\"stats\"}\n".to_vec())
        .unwrap();
    tx.send(b"{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n".to_vec())
        .unwrap();
    let stop = AtomicBool::new(false);
    let mut out = Vec::new();
    let stats = serve_stream(&server, ChannelPipe::new(rx), &mut out, &stop);
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "nothing after the shutdown ack: {text}");
    assert_eq!(lines[2], "{\"ok\":true,\"op\":\"shutdown\"}");
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.accepted, 1, "{stats:?}");
    assert!(
        !stop.load(Ordering::Relaxed),
        "the external stop never rose"
    );
    drop(tx);
}

/// Raising `stop` while the input blocks with its writer still open
/// (an idle stdin) returns within a few poll intervals.
#[test]
fn stop_ends_a_blocked_stream_session_promptly() {
    let (r, s) = workload();
    let cfg = JoinConfig::default();
    let server = Server::new(&r, &s, serve_opts(&cfg));
    let (tx, rx) = channel::<Vec<u8>>();
    let poll = TransportOptions::default().poll_interval;
    let stop = AtomicBool::new(false);
    let mut out = Vec::new();
    let (stats, late) = std::thread::scope(|scope| {
        let raised = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
            Instant::now()
        });
        let stats = serve_stream(&server, ChannelPipe::new(rx), &mut out, &stop);
        let late = raised.join().expect("stopper thread").elapsed();
        (stats, late)
    });
    assert!(
        late < poll * 25,
        "returned {late:?} after the stop, with a {poll:?} poll"
    );
    assert!(out.is_empty(), "nothing to answer");
    assert_eq!(stats.requests, 0);
    drop(tx);
}
