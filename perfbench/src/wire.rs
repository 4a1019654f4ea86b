//! The client side of the serve protocol: line-delimited JSON over TCP
//! against the library's own listener (`serve::transport`, the loop
//! `amdj serve --listen` runs).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use amdj_core::ResultPair;

/// One client connection: a request line out, one response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and returns the response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp)
    }
}

/// The parts of a response line the benchmark checks.
#[derive(Debug, Default)]
pub struct Reply {
    pub ok: bool,
    pub done: bool,
    pub results: Vec<ResultPair>,
}

/// Parses a response line. A line that is not a success response, or
/// whose results do not parse, reads as `ok: false`.
pub fn parse_reply(line: &str) -> Reply {
    if !line.starts_with("{\"ok\":true") {
        return Reply::default();
    }
    let done = line.contains("\"done\":true");
    let Some(arr) = line.split("\"results\":[").nth(1) else {
        return Reply {
            ok: true,
            done,
            results: Vec::new(),
        };
    };
    match parse_pairs(arr) {
        Some(results) => Reply {
            ok: true,
            done,
            results,
        },
        None => Reply::default(),
    }
}

/// Parses `{"r":1,"s":2,"dist":0.5},...]`. Distances are printed in
/// shortest round-trip form, so the parsed `f64`s are the server's bits.
fn parse_pairs(arr: &str) -> Option<Vec<ResultPair>> {
    let body = arr.split(']').next()?;
    let mut out = Vec::new();
    for obj in body.split('}') {
        let obj = obj.trim_start_matches(',').trim_start_matches('{');
        if obj.is_empty() {
            continue;
        }
        let mut r = None;
        let mut s = None;
        let mut dist = None;
        for field in obj.split(',') {
            let (key, val) = field.split_once(':')?;
            match key {
                "\"r\"" => r = val.parse().ok(),
                "\"s\"" => s = val.parse().ok(),
                "\"dist\"" => dist = val.parse().ok(),
                _ => return None,
            }
        }
        out.push(ResultPair {
            r: r?,
            s: s?,
            dist: dist?,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_results_and_errors() {
        let line = "{\"ok\":true,\"op\":\"kdj\",\"id\":\"q\",\"done\":true,\"delivered_total\":2,\"queue_wait_ns\":5,\"results\":[{\"r\":1,\"s\":2,\"dist\":0.5},{\"r\":3,\"s\":4,\"dist\":1e-7}]}\n";
        let rep = parse_reply(line);
        assert!(rep.ok && rep.done);
        assert_eq!(rep.results.len(), 2);
        assert_eq!(rep.results[1].dist.to_bits(), 1e-7f64.to_bits());
        assert!(!parse_reply("{\"ok\":false,\"error\":\"x\"}").ok);
        assert!(parse_reply("{\"ok\":true,\"op\":\"idj_open\",\"id\":\"c\"}").ok);
        let empty = "{\"ok\":true,\"op\":\"kdj\",\"id\":\"q\",\"done\":true,\"delivered_total\":0,\"queue_wait_ns\":5,\"results\":[]}";
        assert!(parse_reply(empty).ok && parse_reply(empty).results.is_empty());
    }
}
