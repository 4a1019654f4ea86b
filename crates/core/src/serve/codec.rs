//! The serve-mode wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request. The decoder is
//! a hand-rolled flat-JSON scanner (no external dependencies anywhere
//! in the workspace) that fails the way the storage codec's `try_*`
//! path does: every syntax, truncation, type, or missing-field problem
//! comes back as an [`amdj_storage::codec::CodecError`] naming the byte
//! offset and the thing expected there — never a panic, never a hung
//! session. Oversized lines are refused before parsing.
//!
//! # Requests
//!
//! ```text
//! {"op":"kdj","id":"q1","k":100,"aggressive":true,"threads":2}
//! {"op":"idj_open","id":"c1","take":500}
//! {"op":"idj_pull","id":"c1","n":100}
//! {"op":"idj_checkpoint","id":"c1"}
//! {"op":"idj_resume","id":"c1","snapshot":"<hex>","delivered":100}
//! {"op":"idj_close","id":"c1"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Join-bearing ops (`kdj`, `idj_open`, `idj_resume`) accept the
//! optional per-query knobs `aggressive` (default `true`) and `threads`
//! (default 1); unknown keys, such as the `partitions` and `steal` older
//! clients may still send, are ignored. Cursor snapshots travel as
//! lowercase hex of the [`EngineSnapshot`](crate::EngineSnapshot) wire
//! format.
//!
//! # Responses
//!
//! Every response carries `"ok": true|false`; errors carry `"error"`
//! with the offending byte offset when the request itself was
//! malformed. Result rows are `{"r": u64, "s": u64, "dist": f64}` with
//! `dist` printed in shortest round-trip form, so a client re-parsing
//! the stream recovers bit-identical distances.

use amdj_storage::codec::CodecError;

use crate::ResultPair;

/// Per-query engine knobs a request may carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Aggressive (estimate-driven, compensated) pruning — the paper's
    /// AM family — versus the exact policy. Default `true`.
    pub aggressive: bool,
    /// Worker threads for this query. Default 1.
    pub threads: u64,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            aggressive: true,
            threads: 1,
        }
    }
}

/// One decoded request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a k-distance join and return all `k` results at once.
    Kdj {
        /// Client-chosen query id, echoed in the response and the
        /// per-query stats log.
        id: String,
        /// Number of closest pairs.
        k: u64,
        /// Engine knobs.
        spec: QuerySpec,
    },
    /// Open an incremental-join cursor materializing up to `take`
    /// pairs, delivered by later `idj_pull`s.
    IdjOpen {
        /// Cursor id (also the stats query id).
        id: String,
        /// Total pairs the cursor may deliver.
        take: u64,
        /// Engine knobs.
        spec: QuerySpec,
    },
    /// Pull the next `n` pairs from an open cursor.
    IdjPull {
        /// Cursor id.
        id: String,
        /// Pairs to deliver.
        n: u64,
    },
    /// Serialize an open cursor to a snapshot the client (or a restart)
    /// can resume from.
    IdjCheckpoint {
        /// Cursor id.
        id: String,
    },
    /// Re-create a cursor from a checkpoint snapshot.
    IdjResume {
        /// Cursor id to create.
        id: String,
        /// The snapshot bytes (hex on the wire).
        snapshot: Vec<u8>,
        /// Pairs the client had already received before the
        /// checkpoint (the cursor resumes delivery after them).
        delivered: u64,
        /// Engine knobs for the resumed episodes.
        spec: QuerySpec,
    },
    /// Drop an open cursor.
    IdjClose {
        /// Cursor id.
        id: String,
    },
    /// Server statistics: global buffer counters plus the per-query
    /// attribution log.
    Stats,
    /// Stop accepting requests and shut down cleanly.
    Shutdown,
}

/// Why a request line could not become a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The line exceeds the server's request size cap.
    TooLarge {
        /// Bytes received.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// Malformed JSON, a missing or mistyped field, or an unknown op —
    /// with the byte offset where decoding gave up.
    Bad(CodecError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::TooLarge { len, max } => {
                write!(f, "request of {len} bytes exceeds the {max}-byte cap")
            }
            RequestError::Bad(e) => write!(
                f,
                "bad request at byte {}: expected {}",
                e.offset, e.expected
            ),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<CodecError> for RequestError {
    fn from(e: CodecError) -> Self {
        RequestError::Bad(e)
    }
}

/// A scalar JSON value the flat scanner produces.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Str(String),
    UInt(u64),
    Num(f64),
    Bool(bool),
    Null,
}

/// A parsed `key: value` with the byte offset of the value, for error
/// reporting in the style of the storage codec's `try_*` reads.
struct Field {
    key: String,
    val: Val,
    offset: usize,
}

struct Scan<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn err(&self, expected: &'static str) -> CodecError {
        CodecError {
            offset: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, expected: &'static str) -> Result<(), CodecError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    /// Parses a JSON string, positioned at its opening quote.
    fn string(&mut self) -> Result<String, CodecError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape character"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = char::from_u32(cp)
                                .ok_or_else(|| self.err("a valid \\u code point"))?;
                            out.push(ch);
                        }
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("a JSON escape"));
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("an escaped control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar; reject invalid UTF-8.
                    let rest = &self.b[self.pos..];
                    let upto = rest.iter().position(|&c| c == b'"' || c == b'\\');
                    let chunk = &rest[..upto.unwrap_or(rest.len())];
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("valid UTF-8"))?;
                    out.push_str(s);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, CodecError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("4 hex digits"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("4 hex digits"))?;
            cp = cp * 16 + d;
            self.pos += 1;
        }
        // Surrogate pairs are not produced by this codec's encoder;
        // reject them instead of emitting invalid scalars.
        Ok(cp)
    }

    fn value(&mut self) -> Result<Val, CodecError> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => {
                self.literal(b"true")?;
                Ok(Val::Bool(true))
            }
            Some(b'f') => {
                self.literal(b"false")?;
                Ok(Val::Bool(false))
            }
            Some(b'n') => {
                self.literal(b"null")?;
                Ok(Val::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b'{' | b'[') => {
                Err(self.err("a scalar value (nested values are not part of the protocol)"))
            }
            _ => Err(self.err("a value")),
        }
    }

    fn literal(&mut self, lit: &'static [u8]) -> Result<(), CodecError> {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("a JSON literal"))
        }
    }

    fn number(&mut self) -> Result<Val, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii number");
        if !float && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Val::UInt(v));
            }
        }
        let v: f64 = text.parse().map_err(|_| CodecError {
            offset: start,
            expected: "a number",
        })?;
        Ok(Val::Num(v))
    }
}

/// Parses one flat JSON object into its fields, with offsets.
fn parse_object(line: &[u8]) -> Result<Vec<Field>, CodecError> {
    let mut s = Scan { b: line, pos: 0 };
    s.skip_ws();
    s.expect(b'{', "'{'")?;
    let mut fields = Vec::new();
    s.skip_ws();
    if s.peek() == Some(b'}') {
        s.pos += 1;
    } else {
        loop {
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            s.expect(b':', "':'")?;
            s.skip_ws();
            let offset = s.pos;
            let val = s.value()?;
            fields.push(Field { key, val, offset });
            s.skip_ws();
            match s.peek() {
                Some(b',') => s.pos += 1,
                Some(b'}') => {
                    s.pos += 1;
                    break;
                }
                _ => return Err(s.err("',' or '}'")),
            }
        }
    }
    s.skip_ws();
    if s.pos != line.len() {
        return Err(s.err("end of request"));
    }
    Ok(fields)
}

struct Fields {
    inner: Vec<Field>,
    end: usize,
}

impl Fields {
    fn find(&self, key: &str) -> Option<&Field> {
        self.inner.iter().find(|f| f.key == key)
    }

    fn missing(&self, expected: &'static str) -> CodecError {
        CodecError {
            offset: self.end,
            expected,
        }
    }

    fn str(&self, key: &str, expected: &'static str) -> Result<String, CodecError> {
        let f = self.find(key).ok_or_else(|| self.missing(expected))?;
        match &f.val {
            Val::Str(s) => Ok(s.clone()),
            _ => Err(CodecError {
                offset: f.offset,
                expected,
            }),
        }
    }

    fn uint(&self, key: &str, expected: &'static str) -> Result<u64, CodecError> {
        let f = self.find(key).ok_or_else(|| self.missing(expected))?;
        match f.val {
            Val::UInt(v) => Ok(v),
            _ => Err(CodecError {
                offset: f.offset,
                expected,
            }),
        }
    }

    fn uint_or(&self, key: &str, expected: &'static str, default: u64) -> Result<u64, CodecError> {
        match self.find(key) {
            None => Ok(default),
            Some(f) => match f.val {
                Val::UInt(v) => Ok(v),
                _ => Err(CodecError {
                    offset: f.offset,
                    expected,
                }),
            },
        }
    }

    fn bool_opt(&self, key: &str, expected: &'static str) -> Result<Option<bool>, CodecError> {
        match self.find(key) {
            None => Ok(None),
            Some(f) => match f.val {
                Val::Bool(v) => Ok(Some(v)),
                _ => Err(CodecError {
                    offset: f.offset,
                    expected,
                }),
            },
        }
    }

    fn spec(&self) -> Result<QuerySpec, CodecError> {
        Ok(QuerySpec {
            aggressive: self
                .bool_opt("aggressive", "boolean field `aggressive`")?
                .unwrap_or(true),
            threads: self.uint_or("threads", "unsigned field `threads`", 1)?,
        })
    }
}

impl Request {
    /// Decodes one request line. `max_bytes` caps the accepted line
    /// length; everything else that can go wrong is a structured
    /// [`RequestError`], never a panic.
    pub fn decode(line: &[u8], max_bytes: usize) -> Result<Request, RequestError> {
        if line.len() > max_bytes {
            return Err(RequestError::TooLarge {
                len: line.len(),
                max: max_bytes,
            });
        }
        let fields = Fields {
            inner: parse_object(line)?,
            end: line.len(),
        };
        let op = fields.str("op", "string field `op`")?;
        let req = match op.as_str() {
            "kdj" => Request::Kdj {
                id: fields.str("id", "string field `id`")?,
                k: fields.uint("k", "unsigned field `k`")?,
                spec: fields.spec()?,
            },
            "idj_open" => Request::IdjOpen {
                id: fields.str("id", "string field `id`")?,
                take: fields.uint("take", "unsigned field `take`")?,
                spec: fields.spec()?,
            },
            "idj_pull" => Request::IdjPull {
                id: fields.str("id", "string field `id`")?,
                n: fields.uint("n", "unsigned field `n`")?,
            },
            "idj_checkpoint" => Request::IdjCheckpoint {
                id: fields.str("id", "string field `id`")?,
            },
            "idj_resume" => {
                let hex = fields.str("snapshot", "string field `snapshot`")?;
                let offset = fields
                    .find("snapshot")
                    .map(|f| f.offset)
                    .unwrap_or(fields.end);
                Request::IdjResume {
                    id: fields.str("id", "string field `id`")?,
                    snapshot: hex_decode(&hex).ok_or(CodecError {
                        offset,
                        expected: "an even-length lowercase hex snapshot",
                    })?,
                    delivered: fields.uint_or("delivered", "unsigned field `delivered`", 0)?,
                    spec: fields.spec()?,
                }
            }
            "idj_close" => Request::IdjClose {
                id: fields.str("id", "string field `id`")?,
            },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            _ => {
                let offset = fields.find("op").map(|f| f.offset).unwrap_or(0);
                return Err(RequestError::Bad(CodecError {
                    offset,
                    expected: "a known op (kdj, idj_open, idj_pull, idj_checkpoint, idj_resume, idj_close, stats, shutdown)",
                }));
            }
        };
        Ok(req)
    }

    /// Encodes the request as one canonical protocol line (no trailing
    /// newline). `decode(encode(r)) == r` for every request — pinned by
    /// the codec round-trip proptest.
    pub fn encode(&self) -> String {
        fn spec_fields(out: &mut String, spec: &QuerySpec) {
            out.push_str(&format!(
                ",\"aggressive\":{},\"threads\":{}",
                spec.aggressive, spec.threads
            ));
        }
        let mut out = String::new();
        match self {
            Request::Kdj { id, k, spec } => {
                out.push_str(&format!(
                    "{{\"op\":\"kdj\",\"id\":{},\"k\":{k}",
                    json_string(id)
                ));
                spec_fields(&mut out, spec);
                out.push('}');
            }
            Request::IdjOpen { id, take, spec } => {
                out.push_str(&format!(
                    "{{\"op\":\"idj_open\",\"id\":{},\"take\":{take}",
                    json_string(id)
                ));
                spec_fields(&mut out, spec);
                out.push('}');
            }
            Request::IdjPull { id, n } => {
                out.push_str(&format!(
                    "{{\"op\":\"idj_pull\",\"id\":{},\"n\":{n}}}",
                    json_string(id)
                ));
            }
            Request::IdjCheckpoint { id } => {
                out.push_str(&format!(
                    "{{\"op\":\"idj_checkpoint\",\"id\":{}}}",
                    json_string(id)
                ));
            }
            Request::IdjResume {
                id,
                snapshot,
                delivered,
                spec,
            } => {
                out.push_str(&format!(
                    "{{\"op\":\"idj_resume\",\"id\":{},\"snapshot\":\"{}\",\"delivered\":{delivered}",
                    json_string(id),
                    hex_encode(snapshot)
                ));
                spec_fields(&mut out, spec);
                out.push('}');
            }
            Request::IdjClose { id } => {
                out.push_str(&format!(
                    "{{\"op\":\"idj_close\",\"id\":{}}}",
                    json_string(id)
                ));
            }
            Request::Stats => out.push_str("{\"op\":\"stats\"}"),
            Request::Shutdown => out.push_str("{\"op\":\"shutdown\"}"),
        }
        out
    }
}

/// Per-query attribution surfaced by the `stats` op and the bench serve
/// rows: which query enjoyed which share of the shared buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReport {
    /// The client-chosen query/cursor id.
    pub id: String,
    /// The op that produced the work (`"kdj"`, `"idj"`).
    pub op: &'static str,
    /// Nanoseconds spent waiting in the admission line.
    pub queue_wait_ns: u64,
    /// Shared-buffer hits attributed to this query's threads.
    pub buffer_hits: u64,
    /// Shared-buffer misses attributed to this query's threads.
    pub buffer_misses: u64,
    /// Shared-buffer evictions this query's inserts caused — its share
    /// of cross-query thrashing pressure.
    pub buffer_evictions: u64,
    /// Results delivered so far.
    pub results: u64,
    /// AM-IDJ/AM-KDJ stages the query ran (a cursor: the highest stage
    /// any of its episodes reached). A cursor creeping well past the
    /// direct join's stage count has lost its aggressive pruning.
    pub stages: u32,
}

impl QueryReport {
    fn encode(&self) -> String {
        format!(
            "{{\"id\":{},\"op\":\"{}\",\"queue_wait_ns\":{},\"buffer_hits\":{},\"buffer_misses\":{},\"buffer_evictions\":{},\"results\":{},\"stages\":{}}}",
            json_string(&self.id),
            self.op,
            self.queue_wait_ns,
            self.buffer_hits,
            self.buffer_misses,
            self.buffer_evictions,
            self.results,
            self.stages
        )
    }
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Results of a `kdj` or `idj_pull`.
    Results {
        /// Echoed query id.
        id: String,
        /// `"kdj"` or `"idj_pull"`.
        op: &'static str,
        /// The delivered pairs, ascending by distance.
        results: Vec<ResultPair>,
        /// Whether the query (or cursor) has no more results to give.
        done: bool,
        /// Total pairs delivered to this id so far (cursors only;
        /// equals `results.len()` for one-shot kdj).
        delivered_total: u64,
        /// Admission wait for this request, nanoseconds.
        queue_wait_ns: u64,
    },
    /// A cursor was opened or resumed.
    Opened {
        /// Cursor id.
        id: String,
        /// `"idj_open"` or `"idj_resume"`.
        op: &'static str,
    },
    /// A cursor checkpoint: the snapshot (hex) plus the delivery
    /// position a resume should pass back.
    Snapshot {
        /// Cursor id.
        id: String,
        /// Encoded snapshot bytes.
        snapshot: Vec<u8>,
        /// Pairs delivered before the checkpoint.
        delivered: u64,
    },
    /// A cursor was closed.
    Closed {
        /// Cursor id.
        id: String,
    },
    /// Server statistics.
    Stats {
        /// Queries completed.
        queries: u64,
        /// Requests the admission controller rejected.
        admission_rejections: u64,
        /// Bytes currently admitted.
        mem_in_use: u64,
        /// Global shared-buffer hits (both trees).
        buffer_hits: u64,
        /// Global shared-buffer misses (both trees).
        buffer_misses: u64,
        /// Global buffer evictions (both trees) — cross-query
        /// thrashing pressure.
        buffer_evictions: u64,
        /// Per-query attribution log.
        reports: Vec<QueryReport>,
    },
    /// The server acknowledges shutdown.
    Shutdown,
    /// Anything that went wrong, as a structured line.
    Error {
        /// Echoed id when the request carried one.
        id: Option<String>,
        /// Human-readable cause (includes byte offsets for malformed
        /// requests).
        error: String,
    },
}

impl Response {
    /// Encodes the response as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Results {
                id,
                op,
                results,
                done,
                delivered_total,
                queue_wait_ns,
            } => {
                let mut out = format!(
                    "{{\"ok\":true,\"op\":\"{op}\",\"id\":{},\"done\":{done},\"delivered_total\":{delivered_total},\"queue_wait_ns\":{queue_wait_ns},\"results\":[",
                    json_string(id)
                );
                for (i, p) in results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"r\":{},\"s\":{},\"dist\":{}}}",
                        p.r, p.s, p.dist
                    ));
                }
                out.push_str("]}");
                out
            }
            Response::Opened { id, op } => {
                format!("{{\"ok\":true,\"op\":\"{op}\",\"id\":{}}}", json_string(id))
            }
            Response::Snapshot {
                id,
                snapshot,
                delivered,
            } => format!(
                "{{\"ok\":true,\"op\":\"idj_checkpoint\",\"id\":{},\"delivered\":{delivered},\"snapshot\":\"{}\"}}",
                json_string(id),
                hex_encode(snapshot)
            ),
            Response::Closed { id } => format!(
                "{{\"ok\":true,\"op\":\"idj_close\",\"id\":{}}}",
                json_string(id)
            ),
            Response::Stats {
                queries,
                admission_rejections,
                mem_in_use,
                buffer_hits,
                buffer_misses,
                buffer_evictions,
                reports,
            } => {
                let mut out = format!(
                    "{{\"ok\":true,\"op\":\"stats\",\"queries\":{queries},\"admission_rejections\":{admission_rejections},\"mem_in_use\":{mem_in_use},\"buffer_hits\":{buffer_hits},\"buffer_misses\":{buffer_misses},\"buffer_evictions\":{buffer_evictions},\"per_query\":["
                );
                for (i, r) in reports.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&r.encode());
                }
                out.push_str("]}");
                out
            }
            Response::Shutdown => "{\"ok\":true,\"op\":\"shutdown\"}".to_string(),
            Response::Error { id, error } => match id {
                Some(id) => format!(
                    "{{\"ok\":false,\"id\":{},\"error\":{}}}",
                    json_string(id),
                    json_string(error)
                ),
                None => format!("{{\"ok\":false,\"error\":{}}}", json_string(error)),
            },
        }
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lowercase hex of `bytes`.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes lowercase/uppercase hex; `None` on odd length or a non-hex
/// character.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_minimal_kdj() {
        let req = Request::decode(br#"{"op":"kdj","id":"q1","k":10}"#, 1024).expect("valid");
        assert_eq!(
            req,
            Request::Kdj {
                id: "q1".into(),
                k: 10,
                spec: QuerySpec::default(),
            }
        );
    }

    #[test]
    fn roundtrips_every_op() {
        let reqs = vec![
            Request::Kdj {
                id: "a\"b\\c".into(),
                k: 7,
                spec: QuerySpec {
                    aggressive: false,
                    threads: 4,
                },
            },
            Request::IdjOpen {
                id: "c".into(),
                take: 100,
                spec: QuerySpec::default(),
            },
            Request::IdjPull {
                id: "c".into(),
                n: 25,
            },
            Request::IdjCheckpoint { id: "c".into() },
            Request::IdjResume {
                id: "c".into(),
                snapshot: vec![0, 1, 254, 255],
                delivered: 12,
                spec: QuerySpec::default(),
            },
            Request::IdjClose { id: "c".into() },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            let back = Request::decode(line.as_bytes(), 1 << 20).expect("own encoding decodes");
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Request::decode(br#"{"op":"kdj","id":"q1""#, 1024).unwrap_err();
        let RequestError::Bad(e) = err else {
            panic!("expected Bad")
        };
        assert_eq!(e.offset, 21, "offset points at the truncation");
        let err = Request::decode(br#"{"op":"kdj","id":"q1","k":"ten"}"#, 1024).unwrap_err();
        let RequestError::Bad(e) = err else {
            panic!("expected Bad")
        };
        assert_eq!(e.offset, 26, "offset points at the mistyped value");
        assert_eq!(e.expected, "unsigned field `k`");
    }

    #[test]
    fn oversized_line_refused_before_parsing() {
        let line = vec![b'x'; 100];
        assert_eq!(
            Request::decode(&line, 10),
            Err(RequestError::TooLarge { len: 100, max: 10 })
        );
    }

    #[test]
    fn unknown_op_is_an_error() {
        let err = Request::decode(br#"{"op":"evict_everything"}"#, 1024).unwrap_err();
        assert!(matches!(err, RequestError::Bad(_)));
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("0"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex");
    }

    #[test]
    fn result_distances_print_round_trip_exact() {
        let resp = Response::Results {
            id: "q".into(),
            op: "kdj",
            results: vec![ResultPair {
                r: 1,
                s: 2,
                dist: 0.1 + 0.2,
            }],
            done: true,
            delivered_total: 1,
            queue_wait_ns: 0,
        };
        let line = resp.encode();
        let printed = line.split("\"dist\":").nth(1).unwrap();
        let printed = &printed[..printed.find('}').unwrap()];
        let back: f64 = printed.parse().unwrap();
        assert_eq!(back.to_bits(), (0.1f64 + 0.2).to_bits());
    }
}
