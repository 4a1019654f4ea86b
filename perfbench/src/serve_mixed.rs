//! `serve-mixed`: two TCP connections, each a closed loop, against the
//! library's join server (the `amdj serve --listen` transport), over
//! uniform × clustered points small enough that both trees fit the
//! 512 KB node buffer (4k per side ≈ 82 pages ≈ 328 KB).
//!
//! The mix has many distinct query ids: AM-KDJ, exact KDJ, AM-KDJ on two
//! threads, and short IDJ cursors. Each server admits one query at a
//! time (a memory budget of one query's queue memory), so the two
//! connections wait at admission. The serve codec, admission, the
//! per-id report log and the transport dominate; the buffer never
//! misses once warm. Each run serves [`SETS`] data sets from the seed,
//! one after another.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use amdj_core::serve::{ServeOptions, Server};
use amdj_core::{
    am_kdj, b_kdj, par_am_kdj, AmIdj, AmIdjOptions, AmKdjOptions, JoinConfig, ResultPair,
};
use amdj_datagen::{clustered_points, uniform_points, unit_universe};
use amdj_rtree::RTree;

use crate::common::{
    build, build_whole_buffer_twin, data_seed, expect_seed_behaviour, fill_self_times, guard,
    median_wall, with_listeners, Built, Ctx, JoinAgg, Mix, BUFFER_PAGES,
};
use crate::report::{same_pairs, same_stream, say, with_peak_rss, Objects, Tally};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::wire::{parse_reply, Conn};

/// Points per side.
pub const N: usize = 4_000;
/// Concurrent client connections (the machine's core count).
pub const CLIENTS: usize = 2;
/// k values of the KDJ requests.
pub const KDJ_K: [usize; 2] = [100, 1_000];
/// Pairs a cursor session takes, and the pull batch.
pub const IDJ_TAKE: usize = 100;
pub const IDJ_BATCH: usize = 25;
/// Data sets per run, each behind its own server. The window is split
/// into one phase per set, and both clients work on the same set during
/// a phase, so they contend for its admission budget; a run's figures
/// average over the sets instead of resting on one draw.
pub const SETS: usize = 4;
/// Set-ups timed per set; `setup_s` is the median over all of them.
const SETUPS_PER_SET: usize = 5;
/// KDJ requests per client the traced run replays in-process and
/// directly against the engine.
const REPLAY: usize = 40;

/// One request shape of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// AM-KDJ, one thread.
    Am(usize),
    /// Exact KDJ (B-KDJ), one thread.
    Exact(usize),
    /// AM-KDJ on two threads.
    AmPar(usize),
    /// An IDJ cursor session: open, pull in batches up to the take, close.
    Cursor { take: usize, batch: usize },
}

impl Kind {
    /// Draws the next request: 40 % AM-KDJ, 20 % exact, 20 % two-thread
    /// AM-KDJ, 20 % cursor sessions.
    fn draw(mix: &mut Mix) -> Kind {
        let k = KDJ_K[mix.below(KDJ_K.len() as u64) as usize];
        match mix.below(10) {
            0..=3 => Kind::Am(k),
            4 | 5 => Kind::Exact(k),
            6 | 7 => Kind::AmPar(k),
            _ => Kind::CURSOR,
        }
    }

    fn all() -> Vec<Kind> {
        let mut v: Vec<Kind> = KDJ_K
            .iter()
            .flat_map(|&k| [Kind::Am(k), Kind::Exact(k), Kind::AmPar(k)])
            .collect();
        v.push(Kind::CURSOR);
        v
    }

    /// This workload's short cursor session.
    const CURSOR: Kind = Kind::Cursor {
        take: IDJ_TAKE,
        batch: IDJ_BATCH,
    };
}

/// The serial library call a request must match.
pub fn reference(r: &RTree<2>, s: &RTree<2>, kind: Kind) -> Vec<ResultPair> {
    let cfg = JoinConfig::default();
    match kind {
        Kind::Am(k) | Kind::AmPar(k) => am_kdj(r, s, k, &cfg, &AmKdjOptions::default()).results,
        Kind::Exact(k) => b_kdj(r, s, k, &cfg).results,
        Kind::Cursor { take, .. } => first_pairs(r, s, take),
    }
}

/// The first `n` pairs of the serial incremental join.
pub fn first_pairs(r: &RTree<2>, s: &RTree<2>, n: usize) -> Vec<ResultPair> {
    let mut cursor = AmIdj::new(r, s, &JoinConfig::default(), AmIdjOptions::default());
    (0..n).map_while(|_| cursor.next()).collect()
}

/// One finished operation, as the client saw it.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub id: String,
    /// Request round trip (KDJ) or the whole session (cursor), seconds.
    pub wall: f64,
    /// Cursor: `idj_open` to the first batch received.
    pub first: Option<f64>,
    /// Cursor: each later pull.
    pub pulls: Vec<f64>,
    pub traced: bool,
}

/// Runs one operation over `conn` and checks it against `want`. Counts
/// it in `tally`: an error response, a dropped connection or a result
/// that differs from `want` fails it.
#[allow(clippy::too_many_arguments)]
pub fn one_op(
    conn: &mut Conn,
    id: String,
    kind: Kind,
    want: &[ResultPair],
    objects: &Objects,
    tracer: &Tracer,
    request: u64,
    tally: &Tally,
) -> Op {
    let start = Instant::now();
    let root = tracer.begin("bench.request", None, request);
    let mut send = |line: String| {
        tracer.span("transport.request", root.id(), request, |_| {
            conn.request(&line)
        })
    };
    let mut first = None;
    let mut pulls = Vec::new();
    let ok = match kind {
        Kind::Am(k) | Kind::Exact(k) | Kind::AmPar(k) => {
            let knobs = match kind {
                Kind::Exact(_) => ",\"aggressive\":false",
                Kind::AmPar(_) => ",\"threads\":2",
                _ => "",
            };
            let line = format!("{{\"op\":\"kdj\",\"id\":\"{id}\",\"k\":{k}{knobs}}}");
            send(line).is_ok_and(|resp| {
                let reply = parse_reply(&resp);
                reply.ok && same_pairs(&reply.results, want)
            })
        }
        Kind::Cursor { take, batch } => {
            let open = format!("{{\"op\":\"idj_open\",\"id\":\"{id}\",\"take\":{take}}}");
            let pull = format!("{{\"op\":\"idj_pull\",\"id\":\"{id}\",\"n\":{batch}}}");
            let mut ok = send(open).is_ok_and(|resp| parse_reply(&resp).ok);
            let mut got = Vec::new();
            while ok {
                let t = Instant::now();
                let Ok(resp) = send(pull.clone()) else {
                    ok = false;
                    break;
                };
                match first {
                    None => first = Some(start.elapsed().as_secs_f64()),
                    Some(_) => pulls.push(t.elapsed().as_secs_f64()),
                }
                let reply = parse_reply(&resp);
                ok = reply.ok;
                got.extend(reply.results);
                if reply.done || got.len() >= take {
                    break;
                }
            }
            let close = format!("{{\"op\":\"idj_close\",\"id\":\"{id}\"}}");
            ok = send(close).is_ok_and(|resp| parse_reply(&resp).ok) && ok;
            ok && same_stream(&got, want, &|r, s| objects.dist(r, s))
        }
    };
    let wall = start.elapsed().as_secs_f64();
    tracer.end(root);
    tally.record(ok, &|| {
        format!("{kind:?} request `{id}` failed or differed from the serial call")
    });
    Op {
        kind,
        id,
        wall,
        first,
        pulls,
        traced: tracer.enabled(),
    }
}

/// One closed-loop client. The window is split into one phase per data
/// set; in phase `g` the client draws requests from `mix` against
/// server `g` until the phase ends. Returns each operation with its set.
fn client(
    ctx: &Ctx,
    addrs: &[SocketAddr],
    c: usize,
    sets: &[Set],
    start: Instant,
) -> Vec<(usize, Op)> {
    let mut mix = Mix::new(data_seed(ctx.seed, 100 + c as u64));
    let phase = ctx.seconds / SETS as f64;
    let mut ops = Vec::new();
    let mut n = 0usize;
    for (g, set) in sets.iter().enumerate() {
        let deadline = start + Duration::from_secs_f64(phase * (g + 1) as f64);
        let Ok(mut conn) = Conn::connect(addrs[g]) else {
            ctx.tally.record(false, &|| {
                format!("client {c} could not connect to server {g}")
            });
            continue;
        };
        while Instant::now() < deadline {
            let kind = Kind::draw(&mut mix);
            let (tracer, request) = (ctx.tracer_for(n), (c as u64) << 32 | n as u64);
            let want = &set.refs[&kind];
            let op = one_op(
                &mut conn,
                format!("c{c}-{n}"),
                kind,
                want,
                &set.objects,
                tracer,
                request,
                &ctx.tally,
            );
            ops.push((g, op));
            n += 1;
        }
    }
    ops
}

fn generate(seed: u64) -> (amdj_datagen::Dataset, amdj_datagen::Dataset) {
    let a = uniform_points(N, unit_universe(), data_seed(seed, 0));
    let b = clustered_points(N, 16, 0.02, unit_universe(), data_seed(seed, 1));
    (a, b)
}

fn options() -> ServeOptions {
    let base = ServeOptions::default();
    ServeOptions {
        // One query's queue memory: the second connection waits.
        mem_budget_bytes: base.base_config.queue_mem_bytes as u64,
        ..base
    }
}

/// One data set with what its requests are checked against.
struct Set {
    built: Built,
    seed: u64,
    objects: Objects,
    refs: HashMap<Kind, Vec<ResultPair>>,
    /// Direct `AmIdj`: seconds to the first batch.
    direct_first: f64,
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (mut setups, mut gen_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut sets = Vec::new();
    let mut stages = Vec::new();
    for g in 0..SETS {
        let seed = data_seed(ctx.seed, g as u64);
        let mut built = None;
        for rep in 0..SETUPS_PER_SET {
            let t = Instant::now();
            let b = build(&ctx.tracer, (g * SETUPS_PER_SET + rep) as u64, || {
                generate(seed)
            });
            let _server = Server::new(&b.r, &b.s, options());
            drop(std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?);
            setups.push(t.elapsed().as_secs_f64());
            gen_s.push(b.gen_s);
            load_s.push(b.load_s);
            built = Some(b);
        }
        let built = built.expect("at least one set-up per set");
        let (r, s) = (&built.r, &built.s);
        let pages = r.page_count() + s.page_count();
        guard(
            pages <= BUFFER_PAGES,
            &format!("serve-mixed trees must fit the 512 KB buffer; they take {pages} pages"),
        )?;
        // Serial references, outside the window and outside set-up.
        let mut refs = HashMap::new();
        for kind in Kind::all() {
            refs.insert(kind, reference(r, s, kind));
            if let Kind::Am(k) = kind {
                let out = am_kdj(r, s, k, &JoinConfig::default(), &AmKdjOptions::default());
                stages.push(out.stats.stages);
            }
        }
        let direct_first = median_wall(3, || {
            first_pairs(r, s, IDJ_BATCH);
        });
        let objects = Objects::new(generate(seed));
        sets.push(Set {
            built,
            seed,
            objects,
            refs,
            direct_first,
        });
    }
    expect_seed_behaviour(
        stages.contains(&2),
        &format!("serve-mixed: Eq. 3 undershoots and AM-KDJ runs its compensation stage (stages per set and k {stages:?})"),
    );

    let servers: Vec<Server<'_, 2>> = sets
        .iter()
        .map(|s| Server::new(&s.built.r, &s.built.s, options()))
        .collect();
    let misses = || {
        sets.iter()
            .map(|s| s.built.r.buffer_misses() + s.built.s.buffer_misses())
            .sum::<u64>()
    };
    let (window, tstats, _) = with_listeners(&servers, |addrs| {
        // Warm-up: every request shape once per server, checked, untimed.
        for (g, set) in sets.iter().enumerate() {
            if let Ok(mut conn) = Conn::connect(addrs[g]) {
                for (i, kind) in Kind::all().into_iter().enumerate() {
                    let want = &set.refs[&kind];
                    one_op(
                        &mut conn,
                        format!("warm-{i}"),
                        kind,
                        want,
                        &set.objects,
                        &ctx.untraced,
                        0,
                        &ctx.tally,
                    );
                }
            }
        }
        let misses_warm = misses();
        let start = Instant::now();
        let (ctx, sets) = (&*ctx, &sets);
        let (ops, peak_mb) = with_peak_rss(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| scope.spawn(move || client(ctx, addrs, c, sets, start)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        let wall = start.elapsed().as_secs_f64();
        (ops, peak_mb, wall, misses() - misses_warm)
    })?;
    let (per_client, peak_mb, wall, misses_after) = window;
    guard(
        misses_after == 0,
        &format!(
            "serve-mixed must not miss the buffer after warm-up; it missed {misses_after} times"
        ),
    )?;
    let is_kdj = |o: &Op| !matches!(o.kind, Kind::Cursor { .. });
    let ops: Vec<&Op> = per_client.iter().flatten().map(|(_, o)| o).collect();
    let kdj: Vec<f64> = ops.iter().filter(|o| is_kdj(o)).map(|o| o.wall).collect();
    let firsts: Vec<f64> = ops.iter().filter_map(|o| o.first).collect();
    let pulls: Vec<f64> = ops.iter().flat_map(|o| o.pulls.iter().copied()).collect();
    let setup_s = median(&setups);
    let p50_ms = median(&kdj) * 1e3;
    let ops_per_s = ops.len() as f64 / wall;
    let direct_first = median(&sets.iter().map(|s| s.direct_first).collect::<Vec<_>>());
    let slowdown = median(&firsts) / direct_first;
    ctx.report.set("setup_s", setup_s);
    ctx.report.set("p50_ms", p50_ms);
    ctx.report.set("peak_rss_mb", peak_mb);
    println!(
        "serve-mixed: {N} x {N} points per set, {SETS} sets, closed loop, {CLIENTS} TCP connections per set, admission budget of one query, {} operations",
        ops.len()
    );
    say(
        "setup_s",
        setup_s,
        "s",
        "median of generate + bulk load + server and listener start",
    );
    say(
        "kdj_p50_ms",
        p50_ms,
        "ms",
        &format!("{} KDJ requests", kdj.len()),
    );
    match tail(&kdj) {
        Some((p, v)) => say(
            "kdj_tail_ms",
            v * 1e3,
            "ms",
            &format!("p{p} of {} samples", kdj.len()),
        ),
        None => println!("kdj_tail_ms = n/a ({} samples; a tail needs 11)", kdj.len()),
    }
    say(
        "idj_first_p50_ms",
        median(&firsts) * 1e3,
        "ms",
        &format!("{} cursor sessions", firsts.len()),
    );
    say(
        "idj_pull_p50_ms",
        median(&pulls) * 1e3,
        "ms",
        &format!("{} later pulls", pulls.len()),
    );
    say(
        "queries_per_s",
        ops_per_s,
        "1/s",
        "KDJ requests and cursor sessions, 2 clients",
    );
    say("error_rate", ctx.tally.error_rate(), "ratio", "");
    say("peak_rss_mb", peak_mb, "MB", "");
    say(
        "cursor_slowdown",
        slowdown,
        "ratio",
        "serve first batch vs direct AmIdj, medians",
    );

    if ctx.tracer.enabled() {
        let (traced, untraced): (Vec<&&Op>, Vec<&&Op>) =
            ops.iter().filter(|o| is_kdj(o)).partition(|o| o.traced);
        let med = |v: &[&&Op]| median(&v.iter().map(|o| o.wall).collect::<Vec<_>>());
        ctx.report
            .set("trace.overhead_ms", (med(&traced) - med(&untraced)) * 1e3);
        ctx.report.set("datagen.gen_s", median(&gen_s));
        ctx.report.set("rtree.bulk_load_s", median(&load_s));
        let reports: Vec<_> = servers.iter().flat_map(|s| s.query_reports()).collect();
        let waits: Vec<f64> = reports
            .iter()
            .filter(|r| r.op == "kdj")
            .map(|r| r.queue_wait_ns as f64 * 1e-6)
            .collect();
        ctx.report.set("serve.queue_wait_p50_ms", median(&waits));
        let rejections: u64 = servers.iter().map(|s| s.admission_rejections()).sum();
        ctx.report
            .set("serve.admission_rejections", rejections as f64);
        ctx.report.set("serve.report_rows", reports.len() as f64);
        ctx.report.set(
            "transport.accepted",
            tstats.iter().map(|t| t.accepted).sum::<u64>() as f64,
        );
        ctx.report.set(
            "transport.cap_rejects",
            tstats.iter().map(|t| t.rejected).sum::<u64>() as f64,
        );
        ctx.report.set("serve.cursor_slowdown", slowdown);
        let replay: Vec<&(usize, Op)> = per_client
            .iter()
            .flat_map(|c| c.iter().filter(|(_, o)| is_kdj(o)).take(REPLAY))
            .collect();
        attribute(ctx, &sets, &replay);
        fill_self_times(ctx, ops.len() as u64);
    }
    Ok(())
}

/// Replays KDJ requests from the window in-process (`handle_line`) and
/// directly against the engine, and runs the ablations on them.
fn attribute(ctx: &mut Ctx, sets: &[Set], replay: &[&(usize, Op)]) {
    let cfg = JoinConfig::default();
    let unbounded = JoinConfig {
        queue_mem_bytes: usize::MAX,
        ..cfg.clone()
    };
    let opts = AmKdjOptions::default();
    let servers: Vec<Server<'_, 2>> = sets
        .iter()
        .map(|s| Server::new(&s.built.r, &s.built.s, options()))
        .collect();
    let mut twins: Vec<Option<(RTree<2>, RTree<2>)>> = sets.iter().map(|_| None).collect();
    let tr = &ctx.tracer;
    let mut agg = JoinAgg::default();
    let mut par_agg = JoinAgg::default();
    let (mut handles, mut overheads, mut tcp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut seq, mut par, mut exact, mut am_for_b) = (0.0, 0.0, 0.0, 0.0);
    let (mut am_real, mut b_real) = (0u64, 0u64);
    let (mut base, mut big_buf, mut big_q) = (0.0, 0.0, 0.0);
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    for (i, (g, op)) in replay.iter().enumerate() {
        let (req, set) = (i as u64, &sets[*g]);
        let (r, s) = (&set.built.r, &set.built.s);
        let (k, knobs) = match op.kind {
            Kind::Am(k) => (k, ""),
            Kind::Exact(k) => (k, ",\"aggressive\":false"),
            Kind::AmPar(k) => (k, ",\"threads\":2"),
            Kind::Cursor { .. } => continue,
        };
        let line = format!("{{\"op\":\"kdj\",\"id\":\"{}\",\"k\":{k}{knobs}}}", op.id);
        let handle = timed(&mut || {
            tr.span("serve.handle_line", None, req, |_| {
                servers[*g].handle_line(line.as_bytes())
            });
        });
        let t = Instant::now();
        let out = match op.kind {
            Kind::Am(_) => tr.span("engine.am_kdj", None, req, |_| am_kdj(r, s, k, &cfg, &opts)),
            Kind::Exact(_) => tr.span("engine.b_kdj", None, req, |_| b_kdj(r, s, k, &cfg)),
            _ => tr.span("engine.par_am_kdj", None, req, |_| {
                par_am_kdj(r, s, k, &cfg, &opts, 2)
            }),
        };
        let direct = t.elapsed().as_secs_f64();
        handles.push(handle);
        overheads.push(handle - direct);
        tcp.push(op.wall);
        match op.kind {
            Kind::Am(_) => {
                agg.add(&out.stats, direct);
                base += direct;
                let (br, bs) =
                    twins[*g].get_or_insert_with(|| build_whole_buffer_twin(|| generate(set.seed)));
                big_buf += timed(&mut || {
                    tr.span("engine.ablate_buffer", None, req, |_| {
                        am_kdj(br, bs, k, &cfg, &opts)
                    });
                });
                big_q += timed(&mut || {
                    tr.span("engine.ablate_queue", None, req, |_| {
                        am_kdj(r, s, k, &unbounded, &opts)
                    });
                });
            }
            Kind::Exact(_) => {
                exact += direct;
                b_real += out.stats.real_dist;
                let t = Instant::now();
                let am = tr.span("engine.am_kdj", None, req, |_| am_kdj(r, s, k, &cfg, &opts));
                am_for_b += t.elapsed().as_secs_f64();
                am_real += am.stats.real_dist;
            }
            _ => {
                par += direct;
                par_agg.add(&out.stats, direct);
                seq += timed(&mut || {
                    tr.span("engine.am_kdj", None, req, |_| am_kdj(r, s, k, &cfg, &opts));
                });
            }
        }
    }
    agg.fill(&mut ctx.report);
    par_agg.fill_parallel(&mut ctx.report);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    ctx.report
        .set("rtree.buffer_wall_share", 1.0 - ratio(big_buf, base));
    ctx.report
        .set("storage.spill_wall_share", 1.0 - ratio(big_q, base));
    ctx.report
        .set("engine.threads2_wall_ratio", ratio(par, seq));
    ctx.report
        .set("engine.am_over_b_wall_ratio", ratio(am_for_b, exact));
    ctx.report.set(
        "engine.b_over_am_real_dist_ratio",
        ratio(b_real as f64, am_real as f64),
    );
    ctx.report
        .set("serve.handle_p50_ms", median(&handles) * 1e3);
    ctx.report
        .set("serve.overhead_p50_ms", median(&overheads) * 1e3);
    ctx.report.set(
        "transport.overhead_p50_ms",
        (median(&tcp) - median(&handles)) * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::with_listeners;

    /// The benchmark's own check: an injected wrong result and an error
    /// response both raise the error rate; a correct run leaves it at 0.
    #[test]
    fn wrong_results_and_error_responses_raise_error_rate() {
        let (a, b) = generate(7);
        let r = RTree::bulk_load(amdj_rtree::RTreeParams::paper_defaults(), a[..500].to_vec());
        let s = RTree::bulk_load(amdj_rtree::RTreeParams::paper_defaults(), b[..500].to_vec());
        let want = reference(&r, &s, Kind::Am(100));
        let cursor_want = reference(&r, &s, Kind::CURSOR);
        let objects = Objects::new((a[..500].to_vec(), b[..500].to_vec()));
        let server = Server::new(&r, &s, ServeOptions::default());
        let tracer = Tracer::new(false);
        let ((clean, wrong, error, cursor), _, _) =
            with_listeners(std::slice::from_ref(&server), |addrs| {
                let mut conn = Conn::connect(addrs[0]).expect("connect");
                let run = |conn: &mut Conn, id: &str, kind: Kind, want: &[ResultPair]| {
                    let tally = Tally::default();
                    one_op(
                        conn,
                        id.to_string(),
                        kind,
                        want,
                        &objects,
                        &tracer,
                        0,
                        &tally,
                    );
                    tally.error_rate()
                };
                let clean = run(&mut conn, "ok", Kind::Am(100), &want);
                // A wrong result: one distance nudged by one ulp.
                let mut bad = want.clone();
                bad[3].dist = f64::from_bits(bad[3].dist.to_bits() + 1);
                let wrong = run(&mut conn, "bad", Kind::Am(100), &bad);
                // An error response: a second open of a cursor id already in
                // use is refused by the server.
                conn.request("{\"op\":\"idj_open\",\"id\":\"dup\",\"take\":5}")
                    .expect("open");
                let error = run(&mut conn, "dup", Kind::CURSOR, &cursor_want);
                let cursor = run(&mut conn, "cur", Kind::CURSOR, &cursor_want);
                (clean, wrong, error, cursor)
            })
            .expect("listener");
        assert_eq!(clean, 0.0);
        assert_eq!(wrong, 1.0);
        assert_eq!(error, 1.0);
        assert_eq!(cursor, 0.0);
    }
}
