//! Fuzzing the serve-mode wire seam: the request codec and the
//! server's `handle_line` dispatch must survive anything a client can
//! throw at them — malformed JSON, truncations, random bytes, mutated
//! valid requests, oversized lines — without panicking or hanging, and
//! every failure must be a structured error whose byte offset points
//! inside the offending line (the storage codec's `try_*` discipline).
//! Well-formed requests must round-trip `decode(encode(r)) == r`.

use std::sync::OnceLock;

use amdj_core::serve::codec::{QueryReport, QuerySpec, Request, RequestError, Response};
use amdj_core::serve::{ServeOptions, Server};
use amdj_core::JoinConfig;
use amdj_datagen::{uniform_points, unit_universe};
use amdj_rtree::{RTree, RTreeParams};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = String> {
    // Printable ASCII (including quotes and backslashes) plus arbitrary
    // unicode scalars, so the JSON string escaping is exercised both
    // ways (the vendored proptest has no char/regex strategies).
    prop_oneof![
        prop::collection::vec(0u8..95, 0..12)
            .prop_map(|v| v.into_iter().map(|b| (b + 32) as char).collect::<String>()),
        prop::collection::vec(any::<u16>(), 0..6).prop_map(|v| {
            v.into_iter()
                .filter_map(|c| char::from_u32(c as u32))
                .collect::<String>()
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = QuerySpec> {
    (
        any::<bool>(),
        0u64..5,
        0u64..5,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(aggressive, threads, partitions, has_steal, steal)| QuerySpec {
                aggressive,
                threads,
                partitions,
                steal: has_steal.then_some(steal),
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_id(), 0u64..200, arb_spec()).prop_map(|(id, k, spec)| Request::Kdj { id, k, spec }),
        (arb_id(), 0u64..200, arb_spec()).prop_map(|(id, take, spec)| Request::IdjOpen {
            id,
            take,
            spec
        }),
        (arb_id(), 0u64..200).prop_map(|(id, n)| Request::IdjPull { id, n }),
        arb_id().prop_map(|id| Request::IdjCheckpoint { id }),
        (
            arb_id(),
            prop::collection::vec(any::<u8>(), 0..48),
            0u64..50,
            arb_spec()
        )
            .prop_map(|(id, snapshot, delivered, spec)| Request::IdjResume {
                id,
                snapshot,
                delivered,
                spec
            }),
        arb_id().prop_map(|id| Request::IdjClose { id }),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

/// A line to throw at the decoder/server: random bytes, or a valid
/// request mutated by one truncation, insertion, or byte flip.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..200),
        (arb_request(), any::<usize>(), any::<u8>(), 0u8..4).prop_map(|(req, idx, byte, mode)| {
            let mut line = req.encode().into_bytes();
            if line.is_empty() {
                return line;
            }
            let i = idx % line.len();
            match mode {
                0 => line.truncate(i),
                1 => line.insert(i, byte),
                2 => line[i] ^= byte,
                _ => {}
            }
            line
        }),
    ]
}

/// One shared tiny tree pair for the `handle_line` fuzz — the server is
/// rebuilt per case (cheap), the trees are not.
fn trees() -> &'static (RTree<2>, RTree<2>) {
    static TREES: OnceLock<(RTree<2>, RTree<2>)> = OnceLock::new();
    TREES.get_or_init(|| {
        let a = uniform_points(60, unit_universe(), 31);
        let b = uniform_points(60, unit_universe(), 32);
        (
            RTree::bulk_load(RTreeParams::for_tests(), a),
            RTree::bulk_load(RTreeParams::for_tests(), b),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: amdj_tests::proptest_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn requests_round_trip_canonically(req in arb_request()) {
        let line = req.encode();
        let back = Request::decode(line.as_bytes(), 1 << 20)
            .expect("canonical encoding must decode");
        prop_assert_eq!(back, req, "round-trip through {}", line);
    }

    #[test]
    fn decode_never_panics_and_errors_stay_in_bounds(line in arb_line()) {
        match Request::decode(&line, 1 << 20) {
            Ok(req) => {
                // Whatever decoded must itself round-trip.
                let canon = req.encode();
                let back = Request::decode(canon.as_bytes(), 1 << 20)
                    .expect("re-encoded request decodes");
                prop_assert_eq!(back, req);
            }
            Err(RequestError::Bad(e)) => {
                prop_assert!(
                    e.offset <= line.len(),
                    "offset {} beyond line length {}",
                    e.offset,
                    line.len()
                );
                prop_assert!(!e.expected.is_empty(), "errors name what was expected");
            }
            Err(RequestError::TooLarge { .. }) => {
                prop_assert!(line.len() > 1 << 20, "TooLarge only past the cap");
            }
        }
    }

    #[test]
    fn oversized_lines_are_refused_before_parsing(extra in 1usize..64) {
        let line = vec![b'{'; 32 + extra];
        prop_assert_eq!(
            Request::decode(&line, 32),
            Err(RequestError::TooLarge { len: 32 + extra, max: 32 })
        );
    }

    #[test]
    fn handle_line_always_answers_with_a_structured_line(lines in prop::collection::vec(arb_line(), 1..8)) {
        let (r, s) = trees();
        let server = Server::new(r, s, ServeOptions {
            base_config: JoinConfig::default(),
            ..ServeOptions::default()
        });
        for line in &lines {
            // Never panics, never hangs: every line gets one response.
            let (resp, _shutdown) = server.handle_line(line);
            let encoded = resp.encode();
            prop_assert!(encoded.starts_with('{'), "responses are JSON lines");
            prop_assert!(!encoded.contains('\n'), "responses are single lines");
            if let Response::Error { error, .. } = &resp {
                prop_assert!(!error.is_empty(), "errors carry a cause");
            }
        }
        // The session stays usable after arbitrary garbage.
        let (resp, _) = server.handle_line(br#"{"op":"stats"}"#);
        let line = resp.encode();
        let Response::Stats { reports, .. } = resp else {
            return Err(TestCaseError::fail("stats still answers"));
        };
        assert_stats_line_carries_reports(&line, &reports)?;
    }
}

/// Every per-query row of a `stats` line ends with its report's
/// `results` and `stages`, and there is one `stages` field per row.
fn assert_stats_line_carries_reports(
    line: &str,
    reports: &[QueryReport],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        line.matches("\"stages\":").count(),
        reports.len(),
        "{}",
        line
    );
    for rep in reports {
        let tail = format!("\"results\":{},\"stages\":{}}}", rep.results, rep.stages);
        prop_assert!(line.contains(&tail), "{} not in {}", tail, line);
    }
    Ok(())
}

/// The `stats` op surfaces each query's stage count: a kdj's from its
/// join, a cursor's as the highest stage any of its episodes reached.
#[test]
fn stats_line_reports_per_query_stages() {
    let (r, s) = trees();
    let server = Server::new(r, s, ServeOptions::default());
    for line in [
        r#"{"op":"kdj","id":"k","k":20}"#,
        r#"{"op":"idj_open","id":"c","take":30}"#,
        r#"{"op":"idj_pull","id":"c","n":30}"#,
    ] {
        let (resp, _) = server.handle_line(line.as_bytes());
        assert!(!matches!(resp, Response::Error { .. }), "{line}");
    }
    let resp = server.stats();
    let line = resp.encode();
    let Response::Stats { reports, .. } = resp else {
        panic!("stats() returns Stats");
    };
    assert_eq!(reports.len(), 2, "{line}");
    assert!(reports.iter().all(|rep| rep.stages >= 1), "{line}");
    assert_stats_line_carries_reports(&line, &reports).unwrap();
}
