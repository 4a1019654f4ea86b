//! The concurrent join server: many KDJ/IDJ queries over one shared
//! pair of trees.
//!
//! [`Server`] is the transport-independent core of `amdj serve`
//! (DESIGN.md §12): it owns no sockets and spawns no threads — callers
//! (the [`transport`] loop behind `amdj serve`, the concurrency tests)
//! bring their own threads and drive it through either the typed
//! methods ([`Server::kdj`], [`Server::idj_pull`], …) or the wire seam
//! ([`Server::handle_line`]), which decodes one request line,
//! dispatches, and encodes one response line without ever panicking.
//!
//! Three subsystems compose it:
//!
//! * **admission** ([`admission`]) — every executing query charges the
//!   engine's own `queue_mem_bytes` unit against one serve-wide memory
//!   budget; overflow waits in a bounded FIFO line, and a full line is
//!   a structured rejection. Blocking happens on the calling thread
//!   (one connection's handler), so admitted queries always progress;
//! * **sessions** ([`session`]) — IDJ cursors behind ids, with checkout
//!   semantics so concurrent requests against one cursor fail fast
//!   instead of racing. A one-worker cursor holds its join live between
//!   pulls; idle live cursors are charged their queue bytes against the
//!   same memory budget and, past it, demoted to an
//!   [`EngineSnapshot`](crate::EngineSnapshot), least recently pulled
//!   first;
//! * **codec** ([`codec`]) — the line-delimited JSON protocol, with
//!   every malformed input reported as a byte-offset error in the
//!   storage codec's style.
//!
//! Every query's buffer traffic is attributed to its id: the engine's
//! `Baseline` captures the coordinating handler thread, worker spans
//! capture the join's own workers (a live cursor's pull runs on the
//! handler thread, under both), and suspended episodes return their
//! stats through [`Checkpointed::Suspended`](crate::Checkpointed) — so
//! the per-query counters in the `stats` response sum exactly to the
//! shared buffer's global deltas (`tests/serve_concurrent.rs`).

pub mod admission;
pub mod codec;
pub mod session;
pub mod transport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use amdj_rtree::RTree;

use crate::engine::{self, write_atomic, JoinKind, JoinRequest, Policy};
use crate::{AmIdjOptions, JoinConfig, JoinOutput, SnapshotError};

use admission::Admission;
use codec::{QueryReport, QuerySpec, Request, RequestError, Response};
use session::{Cursor, CursorTable};

/// Serve-mode tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Total admission budget, bytes. Each executing query charges
    /// `base_config.queue_mem_bytes`; the default admits 8 at once. Idle
    /// live cursors hold at most this many queue bytes together.
    pub mem_budget_bytes: u64,
    /// Requests allowed to wait for admission before rejection.
    pub max_waiting: usize,
    /// Request line size cap, bytes.
    pub max_request_bytes: usize,
    /// Per-query `threads` cap. The engine spawns exactly that many OS
    /// threads, so an uncapped wire value is a resource-exhaustion
    /// vector; requests beyond the cap are rejected with a structured
    /// error. Default: 4× the machine's available parallelism, at
    /// least 16.
    pub max_threads: u64,
    /// The engine configuration every query runs under.
    pub base_config: JoinConfig,
    /// Incremental-join stage schedule options.
    pub idj_opts: AmIdjOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let base_config = JoinConfig::default();
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get() as u64);
        ServeOptions {
            mem_budget_bytes: 8 * base_config.queue_mem_bytes as u64,
            max_waiting: 64,
            max_request_bytes: 1 << 20,
            max_threads: (4 * cores).max(16),
            base_config,
            idj_opts: AmIdjOptions::default(),
        }
    }
}

/// Why a serve request failed.
#[derive(Debug)]
pub enum ServeError {
    /// The admission controller rejected the query (waiting line full,
    /// or the query could never fit the budget).
    Rejected {
        /// Bytes the query would have charged.
        cost: u64,
        /// The serve-wide budget.
        budget: u64,
    },
    /// `idj_open`/`idj_resume` against an id that already exists.
    CursorExists(String),
    /// A cursor op against an unknown id.
    UnknownCursor(String),
    /// A cursor op while another request holds the cursor.
    CursorBusy(String),
    /// A snapshot failed to decode or validate.
    Snapshot(SnapshotError),
    /// The request line itself was malformed.
    BadRequest(RequestError),
    /// A per-query knob exceeded the server's configured cap.
    SpecOutOfRange {
        /// The knob (`"threads"`).
        knob: &'static str,
        /// The requested value.
        got: u64,
        /// The server's cap.
        max: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { cost, budget } => write!(
                f,
                "admission rejected: {cost} bytes against a {budget}-byte budget with a full waiting line"
            ),
            ServeError::CursorExists(id) => write!(f, "cursor `{id}` already exists"),
            ServeError::UnknownCursor(id) => write!(f, "no cursor `{id}`"),
            ServeError::CursorBusy(id) => {
                write!(f, "cursor `{id}` is busy serving another request")
            }
            ServeError::Snapshot(e) => write!(f, "{e}"),
            ServeError::BadRequest(e) => write!(f, "{e}"),
            ServeError::SpecOutOfRange { knob, got, max } => {
                write!(f, "per-query `{knob}` {got} exceeds the server cap {max}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<RequestError> for ServeError {
    fn from(e: RequestError) -> Self {
        ServeError::BadRequest(e)
    }
}

/// The on-disk snapshot file name for a checkpointed cursor id:
/// lowercase hex of the id's bytes plus `.snap`. Hex is injective, so
/// distinct ids — `"a.b"` versus `"a_b"`, say — can never collide on
/// one file, and ids containing separators or control characters stay
/// inert. Shared by [`Server::checkpoint_open_cursors`] and
/// [`Server::resume_cursors_from`] so both ends agree on the naming.
pub fn snap_file_name(id: &str) -> String {
    format!("{}.snap", codec::hex_encode(id.as_bytes()))
}

/// The one mapping from a query's wire knobs onto the engine's request.
impl QuerySpec {
    /// The k-distance pruning policy `aggressive` names.
    fn policy(&self) -> Policy {
        if self.aggressive {
            Policy::default()
        } else {
            Policy::Exact
        }
    }

    /// A fresh request for `kind` on `threads` workers (at least one).
    fn request<const D: usize>(&self, kind: JoinKind) -> JoinRequest<D> {
        JoinRequest::new(kind, (self.threads as usize).max(1))
    }
}

/// One [`Server::idj_pull`]'s outcome.
#[derive(Clone, Debug)]
pub struct Pull {
    /// The delivered pairs, ascending by distance.
    pub results: Vec<crate::ResultPair>,
    /// Whether the cursor is exhausted.
    pub done: bool,
    /// Total pairs delivered to the client so far.
    pub delivered: u64,
    /// The cursor's *cumulative* admission wait across all its pulls,
    /// ns — the queueing delay the wire response reports.
    pub queue_wait_ns: u64,
}

/// The transport-independent join server over one shared tree pair.
/// All methods take `&self`; the shared buffer synchronizes internally,
/// so any number of handler threads may call in concurrently.
#[derive(Debug)]
pub struct Server<'t, const D: usize> {
    r: &'t RTree<D>,
    s: &'t RTree<D>,
    opts: ServeOptions,
    admission: Admission,
    cursors: CursorTable<'t, D>,
    reports: Mutex<Vec<QueryReport>>,
    queries: AtomicU64,
}

impl<'t, const D: usize> Server<'t, D> {
    /// A server over `r` and `s` (loaded/persisted once by the caller).
    pub fn new(r: &'t RTree<D>, s: &'t RTree<D>, opts: ServeOptions) -> Self {
        let admission = Admission::new(opts.mem_budget_bytes, opts.max_waiting);
        let cursors = CursorTable::new(opts.mem_budget_bytes);
        Server {
            r,
            s,
            opts,
            admission,
            cursors,
            reports: Mutex::new(Vec::new()),
            queries: AtomicU64::new(0),
        }
    }

    /// The serve options in effect.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Bounds the per-query knobs that come straight off the wire:
    /// `threads` spawns that many OS threads, so arbitrary u64s must be
    /// refused as structured errors before any dispatch.
    fn check_spec(&self, spec: &QuerySpec) -> Result<(), ServeError> {
        if spec.threads > self.opts.max_threads {
            return Err(ServeError::SpecOutOfRange {
                knob: "threads",
                got: spec.threads,
                max: self.opts.max_threads,
            });
        }
        Ok(())
    }

    /// Admission cost of one query under `cfg` — the engine's own
    /// queue memory budget, the unit the paper bounds a join by.
    fn cost_of(&self, cfg: &JoinConfig) -> u64 {
        cfg.queue_mem_bytes as u64
    }

    fn admit(&self, cost: u64) -> Result<admission::AdmitGuard<'_>, ServeError> {
        self.admission.acquire(cost).ok_or(ServeError::Rejected {
            cost,
            budget: self.opts.mem_budget_bytes,
        })
    }

    /// Folds one finished request's attribution into the per-query log
    /// (one row per id+op). The two ops report differently and must
    /// not mix: a cursor (`cumulative`) carries running totals across
    /// its whole lifetime, so its row is *replaced* — adding would
    /// double-count earlier pulls; a kdj request reports this query's
    /// deltas, so a reused id *sums* — replacing would drop the
    /// earlier queries' traffic (`stages`, not a counter, keeps the
    /// maximum). Either way every buffer fetch lands in exactly one row
    /// exactly once, preserving the rows-sum-to-global-deltas invariant
    /// (`tests/serve_concurrent.rs`).
    fn record(&self, report: QueryReport, cumulative: bool) {
        let mut log = self.reports.lock().expect("report log poisoned");
        match log
            .iter_mut()
            .find(|r| r.id == report.id && r.op == report.op)
        {
            Some(row) if cumulative => *row = report,
            Some(row) => {
                row.queue_wait_ns += report.queue_wait_ns;
                row.buffer_hits += report.buffer_hits;
                row.buffer_misses += report.buffer_misses;
                row.buffer_evictions += report.buffer_evictions;
                row.results += report.results;
                row.stages = row.stages.max(report.stages);
            }
            None => log.push(report),
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs one k-distance join under admission control, returning the
    /// results and the query's attribution report.
    pub fn kdj(
        &self,
        id: &str,
        k: usize,
        spec: &QuerySpec,
    ) -> Result<(JoinOutput, QueryReport), ServeError> {
        self.check_spec(spec)?;
        let cfg = &self.opts.base_config;
        let guard = self.admit(self.cost_of(cfg))?;
        let kind = JoinKind::Kdj {
            k,
            policy: spec.policy(),
        };
        let out = engine::run_to_end(self.r, self.s, spec.request(kind), cfg);
        let wait_ns = guard.queue_wait_ns;
        drop(guard);
        let report =
            QueryReport::from_stats(id, "kdj", wait_ns, out.results.len() as u64, &out.stats);
        self.record(report.clone(), false);
        Ok((out, report))
    }

    /// Opens an incremental-join cursor (no engine work yet).
    pub fn idj_open(&self, id: &str, take: usize, spec: QuerySpec) -> Result<(), ServeError> {
        self.check_spec(&spec)?;
        self.cursors.insert(id, Cursor::open(take, spec))
    }

    /// Re-creates a cursor from checkpoint snapshot bytes; `delivered`
    /// pairs are skipped on the next pull. Corrupt or truncated bytes
    /// are a clean error.
    pub fn idj_resume(
        &self,
        id: &str,
        snapshot: &[u8],
        delivered: u64,
        spec: QuerySpec,
    ) -> Result<(), ServeError> {
        self.check_spec(&spec)?;
        let snap = crate::EngineSnapshot::<D>::decode(snapshot).map_err(ServeError::Snapshot)?;
        snap.check_trees(self.r, self.s)?;
        let cursor = Cursor::resume(snap, delivered, spec)?;
        self.cursors.insert(id, cursor)
    }

    /// Pulls the next `n` pairs from a cursor under admission control,
    /// advancing its join on the calling thread (or, with several
    /// workers, running at most one engine episode) until the window is
    /// stable.
    pub fn idj_pull(&self, id: &str, n: usize) -> Result<Pull, ServeError> {
        let mut cursor = self.cursors.checkout(id)?;
        let cfg = &self.opts.base_config;
        let outcome = match self.admit(self.cost_of(cfg)) {
            Err(e) => Err(e),
            Ok(guard) => {
                cursor.queue_wait_ns += guard.queue_wait_ns;
                let res = cursor.pull(self.r, self.s, cfg, &self.opts.idj_opts, n);
                drop(guard);
                res
            }
        };
        let wait_ns = cursor.queue_wait_ns;
        let delivered = cursor.delivered();
        let report = QueryReport::from_stats(id, "idj", wait_ns, delivered, &cursor.stats());
        self.cursors.checkin(id, cursor);
        let (results, done) = outcome?;
        self.record(report, true);
        Ok(Pull {
            results,
            done,
            delivered,
            queue_wait_ns: wait_ns,
        })
    }

    /// Serializes a cursor to snapshot bytes plus its delivery
    /// position. The cursor stays open; a live one goes live again on
    /// its next pull.
    pub fn idj_checkpoint(&self, id: &str) -> Result<(Vec<u8>, u64), ServeError> {
        let mut cursor = self.cursors.checkout(id)?;
        let cfg = &self.opts.base_config;
        let outcome = cursor.checkpoint(self.r, self.s, cfg, &self.opts.idj_opts);
        self.cursors.checkin(id, cursor);
        Ok(outcome)
    }

    /// Queue bytes the idle live cursors hold together: at most
    /// `mem_budget_bytes` between requests.
    pub fn idle_cursor_bytes(&self) -> u64 {
        self.cursors.charged()
    }

    /// Closes a cursor, dropping its state.
    pub fn idj_close(&self, id: &str) -> Result<(), ServeError> {
        self.cursors.remove(id).map(drop)
    }

    /// Checkpoints every idle cursor into `dir` as
    /// [`snap_file_name`]`(id)` files plus a `cursors.txt` manifest
    /// (`hex(id)<TAB>delivered` per line) — the graceful-shutdown
    /// path: call after draining in-flight requests, so every cursor
    /// is idle. Returns the checkpointed ids (sorted, so the on-disk
    /// layout is deterministic).
    ///
    /// The shutdown is non-lossy: cursors leave the table only once
    /// every snapshot *and* the manifest are safely on disk. If any
    /// checkpoint or write fails mid-way, every cursor — including the
    /// ones already written — is restored to the table and the error is
    /// returned, so a caller can retry (or keep serving) without having
    /// silently dropped the remaining cursors. Both the snapshots and
    /// the manifest are written atomically (write-then-rename with an
    /// fsync, the `engine/checkpoint.rs` pattern), so a crash mid-
    /// shutdown never leaves a truncated manifest pointing at good
    /// snapshots or vice versa.
    ///
    /// Ids are hex-encoded in both places: the encoding is injective,
    /// so distinct ids can never share a snapshot file, and no id byte
    /// (tab, newline, path separator — all legal in JSON strings) can
    /// corrupt the manifest or escape the directory.
    pub fn checkpoint_open_cursors(&self, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut cursors = self.cursors.drain();
        cursors.sort_by(|a, b| a.0.cmp(&b.0));
        let attempt = (|| -> std::io::Result<Vec<String>> {
            let mut manifest = String::new();
            let mut ids = Vec::new();
            for (id, cursor) in cursors.iter_mut() {
                let cfg = &self.opts.base_config;
                let (bytes, delivered) =
                    cursor.checkpoint(self.r, self.s, cfg, &self.opts.idj_opts);
                write_atomic(&dir.join(snap_file_name(id)), &bytes)?;
                manifest.push_str(&format!(
                    "{}\t{delivered}\n",
                    codec::hex_encode(id.as_bytes())
                ));
                ids.push(id.clone());
            }
            write_atomic(&dir.join("cursors.txt"), manifest.as_bytes())?;
            Ok(ids)
        })();
        if attempt.is_err() {
            // Undo the drain: the cursors stay open and pullable, and a
            // later shutdown attempt can checkpoint them again.
            for (id, cursor) in cursors {
                self.cursors.restore(id, cursor);
            }
        }
        attempt
    }

    /// Re-opens every cursor a previous run's
    /// [`checkpoint_open_cursors`](Server::checkpoint_open_cursors)
    /// left in `dir`, resuming each snapshot at its recorded delivery
    /// position. A missing manifest means a fresh start (returns no
    /// ids); a malformed manifest or a corrupt snapshot is a clean
    /// error. Returns the resumed ids in manifest order.
    pub fn resume_cursors_from(&self, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
        let manifest = dir.join("cursors.txt");
        let text = match std::fs::read_to_string(&manifest) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let bad = |what: String| std::io::Error::other(format!("{}: {what}", manifest.display()));
        let mut ids = Vec::new();
        for line in text.lines() {
            let (hex_id, delivered) = line
                .split_once('\t')
                .ok_or_else(|| bad(format!("malformed manifest line {line:?}")))?;
            let id = codec::hex_decode(hex_id)
                .and_then(|b| String::from_utf8(b).ok())
                .ok_or_else(|| bad(format!("malformed cursor id {hex_id:?} (expected hex)")))?;
            let delivered: u64 = delivered.parse().map_err(|e| bad(format!("{e}")))?;
            let path = dir.join(snap_file_name(&id));
            let bytes = std::fs::read(&path)?;
            self.idj_resume(&id, &bytes, delivered, QuerySpec::default())
                .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
            ids.push(id);
        }
        Ok(ids)
    }

    /// The server's statistics response: global buffer counters for
    /// both trees plus the per-query attribution log.
    pub fn stats(&self) -> Response {
        Response::Stats {
            queries: self.queries.load(Ordering::Relaxed),
            admission_rejections: self.admission.rejections(),
            mem_in_use: self.admission.in_use(),
            buffer_hits: self.r.buffer_hits() + self.s.buffer_hits(),
            buffer_misses: self.r.buffer_misses() + self.s.buffer_misses(),
            buffer_evictions: self.r.buffer_evictions() + self.s.buffer_evictions(),
            reports: self.reports.lock().expect("report log poisoned").clone(),
        }
    }

    /// A clone of the per-query attribution log.
    pub fn query_reports(&self) -> Vec<QueryReport> {
        self.reports.lock().expect("report log poisoned").clone()
    }

    /// Requests the admission controller rejected.
    pub fn admission_rejections(&self) -> u64 {
        self.admission.rejections()
    }

    /// Decodes one request line, dispatches it, and encodes the
    /// response. Returns the response plus whether the request asked
    /// the server to shut down. Every failure — malformed line,
    /// unknown cursor, rejected admission, corrupt snapshot — is a
    /// structured [`Response::Error`]; this seam never panics
    /// (`tests/serve_codec.rs` fuzzes it).
    pub fn handle_line(&self, line: &[u8]) -> (Response, bool) {
        let req = match Request::decode(line, self.opts.max_request_bytes) {
            Ok(req) => req,
            Err(e) => {
                return (
                    Response::Error {
                        id: None,
                        error: e.to_string(),
                    },
                    false,
                )
            }
        };
        let (id, resp) = match req {
            Request::Kdj { id, k, spec } => {
                let resp =
                    self.kdj(&id, k as usize, &spec)
                        .map(|(out, report)| Response::Results {
                            id: id.clone(),
                            op: "kdj",
                            done: true,
                            delivered_total: out.results.len() as u64,
                            queue_wait_ns: report.queue_wait_ns,
                            results: out.results,
                        });
                (id, resp)
            }
            Request::IdjOpen { id, take, spec } => {
                let resp = self
                    .idj_open(&id, take as usize, spec)
                    .map(|()| Response::Opened {
                        id: id.clone(),
                        op: "idj_open",
                    });
                (id, resp)
            }
            Request::IdjPull { id, n } => {
                let resp = self
                    .idj_pull(&id, n as usize)
                    .map(|pull| Response::Results {
                        id: id.clone(),
                        op: "idj_pull",
                        done: pull.done,
                        delivered_total: pull.delivered,
                        queue_wait_ns: pull.queue_wait_ns,
                        results: pull.results,
                    });
                (id, resp)
            }
            Request::IdjCheckpoint { id } => {
                let resp =
                    self.idj_checkpoint(&id)
                        .map(|(snapshot, delivered)| Response::Snapshot {
                            id: id.clone(),
                            snapshot,
                            delivered,
                        });
                (id, resp)
            }
            Request::IdjResume {
                id,
                snapshot,
                delivered,
                spec,
            } => {
                let resp =
                    self.idj_resume(&id, &snapshot, delivered, spec)
                        .map(|()| Response::Opened {
                            id: id.clone(),
                            op: "idj_resume",
                        });
                (id, resp)
            }
            Request::IdjClose { id } => {
                let resp = self
                    .idj_close(&id)
                    .map(|()| Response::Closed { id: id.clone() });
                (id, resp)
            }
            Request::Stats => return (self.stats(), false),
            Request::Shutdown => return (Response::Shutdown, true),
        };
        let resp = resp.unwrap_or_else(|e| Response::Error {
            id: Some(id),
            error: e.to_string(),
        });
        (resp, false)
    }
}
