//! `idj-cursor`: one connection pages through incremental joins the way
//! a user would — `idj_open`, then `idj_pull` in fixed batches up to the
//! take, then `idj_close` — against the library's join server over TCP.
//!
//! The data is TIGER-like Arizona at scale 0.02 (12.7k × 3.8k objects,
//! ~167 pages ≈ 668 KB, over the 512 KB buffer). At this size the
//! streets tree is three levels deep, the point past which the serve
//! cursor's episode, snapshot and resume loop departs from the direct
//! `AmIdj` cursor. Each run builds [`GEOGRAPHIES`] data sets from the
//! seed, serves each from its own server, and rotates sessions over them.

use std::net::SocketAddr;
use std::time::Instant;

use amdj_core::serve::{ServeOptions, Server};
use amdj_core::{par_am_idj, AmIdj, AmIdjOptions, JoinConfig, JoinStats, ResultPair};
use amdj_datagen::tiger;

use crate::common::{
    build, build_whole_buffer_twin, data_seed, expect_seed_behaviour, fill_self_times, guard,
    median_wall, with_listeners, Built, Ctx, JoinAgg, BUFFER_PAGES,
};
use crate::report::{say, with_peak_rss, Objects};
use crate::serve_mixed::{first_pairs, one_op, Kind, Op};
use crate::stats::{median, tail};
use crate::wire::{parse_reply, Conn};

/// Workload scale relative to the paper's Arizona cardinalities.
pub const SCALE: f64 = 0.02;
/// Independent data sets (and servers) per run.
pub const GEOGRAPHIES: usize = 5;
/// Pairs each session takes, and the pull batch.
pub const TAKE: usize = 500;
pub const BATCH: usize = 50;
/// Set-ups timed per geography; `setup_s` is the median over all of
/// them plus binding the listeners.
const SETUPS_PER_GEOGRAPHY: usize = 3;

const SESSION: Kind = Kind::Cursor {
    take: TAKE,
    batch: BATCH,
};

struct Geo {
    built: Built,
    seed: u64,
    reference: Vec<ResultPair>,
    objects: Objects,
    /// Direct `AmIdj`: seconds to the first batch.
    direct_first: f64,
    /// Direct `AmIdj` counters over the whole take.
    direct_stats: JoinStats,
}

fn generate(seed: u64) -> (amdj_datagen::Dataset, amdj_datagen::Dataset) {
    tiger::arizona_workload(SCALE, seed)
}

/// The first batch from a serve cursor driven in-process through
/// `handle_line`, seconds.
fn handle_first_batch(server: &Server<'_, 2>, id: &str) -> Result<f64, String> {
    let send = |line: String| {
        let (resp, _) = server.handle_line(line.as_bytes());
        let resp = resp.encode();
        if parse_reply(&resp).ok {
            Ok(())
        } else {
            Err(format!("in-process cursor request failed: {resp}"))
        }
    };
    let t = Instant::now();
    send(format!(
        "{{\"op\":\"idj_open\",\"id\":\"{id}\",\"take\":{TAKE}}}"
    ))?;
    send(format!(
        "{{\"op\":\"idj_pull\",\"id\":\"{id}\",\"n\":{BATCH}}}"
    ))?;
    let first = t.elapsed().as_secs_f64();
    send(format!("{{\"op\":\"idj_close\",\"id\":\"{id}\"}}"))?;
    Ok(first)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = JoinConfig::default();
    let mut geos = Vec::new();
    let mut setups = Vec::new();
    for g in 0..GEOGRAPHIES {
        let seed = data_seed(ctx.seed, g as u64);
        let mut built = build(&ctx.tracer, g as u64, || generate(seed));
        setups.push(built.gen_s + built.load_s);
        for _ in 1..SETUPS_PER_GEOGRAPHY {
            built = build(&ctx.tracer, g as u64, || generate(seed));
            setups.push(built.gen_s + built.load_s);
        }
        let pages = built.r.page_count() + built.s.page_count();
        guard(
            built.r.height() >= 3 && pages > BUFFER_PAGES,
            &format!(
                "idj-cursor needs a three-level streets tree over the 512 KB buffer; got height {} and {pages} pages",
                built.r.height()
            ),
        )?;
        geos.push(Geo {
            built,
            seed,
            reference: Vec::new(),
            objects: Objects::new(generate(seed)),
            direct_first: 0.0,
            direct_stats: JoinStats::default(),
        });
    }
    // Serial references and the direct cursor's timing, outside the
    // window and outside set-up.
    for geo in &mut geos {
        let (r, s) = (&geo.built.r, &geo.built.s);
        geo.direct_first = median_wall(3, || {
            first_pairs(r, s, BATCH);
        });
        let mut cursor = AmIdj::new(r, s, &cfg, AmIdjOptions::default());
        geo.reference = (0..TAKE).map_while(|_| cursor.next()).collect();
        geo.direct_stats = cursor.stats();
    }

    let servers: Vec<Server<'_, 2>> = geos
        .iter()
        .map(|g| Server::new(&g.built.r, &g.built.s, ServeOptions::default()))
        .collect();
    let mut busy = 0.0;
    let ((sessions, peak_mb), tstats, bind_s) =
        with_listeners(&servers, |addrs: &[SocketAddr]| {
            let mut conns: Vec<Option<Conn>> = addrs.iter().map(|_| None).collect();
            with_peak_rss(|| {
                let mut sessions: Vec<(usize, Op)> = Vec::new();
                let mut j = 0usize;
                while busy < ctx.seconds {
                    let g = j % GEOGRAPHIES;
                    let conn = match &mut conns[g] {
                        Some(c) => c,
                        slot => match Conn::connect(addrs[g]) {
                            Ok(c) => slot.insert(c),
                            Err(_) => {
                                ctx.tally
                                    .record(false, &|| format!("could not connect to server {g}"));
                                break;
                            }
                        },
                    };
                    // GEOGRAPHIES is odd, so alternating sessions between
                    // the tracers also alternates within each geography.
                    let tracer = ctx.tracer_for(j);
                    let op = one_op(
                        conn,
                        format!("s{j}"),
                        SESSION,
                        &geos[g].reference,
                        &geos[g].objects,
                        tracer,
                        j as u64,
                        &ctx.tally,
                    );
                    busy += op.wall;
                    sessions.push((g, op));
                    j += 1;
                }
                sessions
            })
        })?;

    let firsts: Vec<f64> = sessions.iter().filter_map(|(_, o)| o.first).collect();
    let pulls: Vec<f64> = sessions
        .iter()
        .flat_map(|(_, o)| o.pulls.iter().copied())
        .collect();
    let setup_s = median(&setups) + bind_s;
    let p50_ms = median(&firsts) * 1e3;
    let ops_per_s = sessions.len() as f64 / busy;
    let direct = median(&geos.iter().map(|g| g.direct_first).collect::<Vec<_>>());
    let slowdown = median(&firsts) / direct;
    ctx.report.set("setup_s", setup_s);
    ctx.report.set("p50_ms", p50_ms);
    ctx.report.set("peak_rss_mb", peak_mb);
    println!(
        "idj-cursor: {} x {} objects per geography, {GEOGRAPHIES} geographies, closed loop, 1 connection, take {TAKE} in batches of {BATCH}, {} sessions",
        geos[0].built.r.len(),
        geos[0].built.s.len(),
        sessions.len()
    );
    say(
        "setup_s",
        setup_s,
        "s",
        "median per-geography generate + bulk load, plus listener start",
    );
    say(
        "idj_first_p50_ms",
        p50_ms,
        "ms",
        &format!("{} sessions", firsts.len()),
    );
    match tail(&firsts) {
        Some((p, v)) => say(
            "idj_first_tail_ms",
            v * 1e3,
            "ms",
            &format!("p{p} of {} samples", firsts.len()),
        ),
        None => println!(
            "idj_first_tail_ms = n/a ({} samples; a tail needs 11)",
            firsts.len()
        ),
    }
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
        "cursor sessions, 1 connection",
    );
    say("error_rate", ctx.tally.error_rate(), "ratio", "");
    say("peak_rss_mb", peak_mb, "MB", "");
    say(
        "cursor_slowdown",
        slowdown,
        "ratio",
        "serve first batch vs direct AmIdj, medians",
    );
    expect_seed_behaviour(
        slowdown > 5.0,
        "idj-cursor: the serve cursor's first batch is far slower than a direct AmIdj",
    );

    if ctx.tracer.enabled() {
        let firsts_where = |traced: bool| -> Vec<f64> {
            sessions
                .iter()
                .filter(|(_, o)| o.traced == traced)
                .filter_map(|(_, o)| o.first)
                .collect()
        };
        let (traced, untraced) = (firsts_where(true), firsts_where(false));
        let overhead = if untraced.is_empty() {
            println!("trace.overhead_ms = n/a (no untraced session)");
            0.0
        } else {
            (median(&traced) - median(&untraced)) * 1e3
        };
        ctx.report.set("trace.overhead_ms", overhead);
        ctx.report.set("serve.cursor_slowdown", slowdown);
        ctx.report.set(
            "transport.accepted",
            tstats.iter().map(|t| t.accepted).sum::<u64>() as f64,
        );
        ctx.report.set(
            "transport.cap_rejects",
            tstats.iter().map(|t| t.rejected).sum::<u64>() as f64,
        );
        let tcp_first0: Vec<f64> = sessions
            .iter()
            .filter(|(g, _)| *g == 0)
            .filter_map(|(_, o)| o.first)
            .collect();
        attribute(ctx, &geos, &servers, median(&tcp_first0))?;
        fill_self_times(ctx, sessions.len() as u64);
    }
    Ok(())
}

/// The traced run's per-layer attribution.
fn attribute(
    ctx: &mut Ctx,
    geos: &[Geo],
    servers: &[Server<'_, 2>],
    tcp_first0: f64,
) -> Result<(), String> {
    let gen_s: Vec<f64> = geos.iter().map(|g| g.built.gen_s).collect();
    let load_s: Vec<f64> = geos.iter().map(|g| g.built.load_s).collect();
    ctx.report.set("datagen.gen_s", median(&gen_s));
    ctx.report.set("rtree.bulk_load_s", median(&load_s));
    let mut agg = JoinAgg::default();
    for g in geos {
        agg.add(&g.direct_stats, g.direct_first);
    }
    agg.fill(&mut ctx.report);
    // The buffer counters of the serve cursors themselves, from the
    // servers' per-query reports.
    let reports: Vec<_> = servers.iter().flat_map(|s| s.query_reports()).collect();
    let (hits, misses, evictions) = reports.iter().fold((0, 0, 0), |(h, m, e), r| {
        (
            h + r.buffer_hits,
            m + r.buffer_misses,
            e + r.buffer_evictions,
        )
    });
    let rows = reports.len().max(1) as f64;
    ctx.report.set(
        "rtree.buffer_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    ctx.report
        .set("rtree.buffer_misses_per_query", misses as f64 / rows);
    ctx.report
        .set("rtree.buffer_evictions_per_query", evictions as f64 / rows);
    let waits: Vec<f64> = reports
        .iter()
        .map(|r| r.queue_wait_ns as f64 * 1e-6)
        .collect();
    ctx.report.set("serve.queue_wait_p50_ms", median(&waits));
    ctx.report.set("serve.report_rows", rows);
    ctx.report.set(
        "serve.admission_rejections",
        servers
            .iter()
            .map(|s| s.admission_rejections())
            .sum::<u64>() as f64,
    );

    // Geography 0, in-process: the serve cursor as measured, with a
    // buffer that holds both trees, and with unbounded queue memory.
    let geo = &geos[0];
    let (r, s) = (&geo.built.r, &geo.built.s);
    let tr = &ctx.tracer;
    let fresh = Server::new(r, s, ServeOptions::default());
    let handle = tr.span("serve.handle_line", None, 0, |_| {
        handle_first_batch(&fresh, "h")
    })?;
    let (br, bs) = build_whole_buffer_twin(|| generate(geo.seed));
    let big_buf = tr.span("serve.ablate_buffer", None, 0, |_| {
        handle_first_batch(&Server::new(&br, &bs, ServeOptions::default()), "b")
    })?;
    drop((br, bs));
    // Unbounded queue memory; the admission budget must admit it.
    let mut unbounded = ServeOptions::default();
    unbounded.base_config.queue_mem_bytes = usize::MAX;
    unbounded.mem_budget_bytes = u64::MAX;
    let big_q = tr.span("serve.ablate_queue", None, 0, |_| {
        handle_first_batch(&Server::new(r, s, unbounded), "q")
    })?;
    ctx.report
        .set("rtree.buffer_wall_share", 1.0 - big_buf / handle);
    ctx.report
        .set("storage.spill_wall_share", 1.0 - big_q / handle);
    ctx.report.set("serve.handle_p50_ms", handle * 1e3);
    ctx.report
        .set("serve.overhead_p50_ms", (handle - geo.direct_first) * 1e3);
    ctx.report
        .set("transport.overhead_p50_ms", (tcp_first0 - handle) * 1e3);

    // The direct cursor's first batch on two threads.
    let cfg = JoinConfig::default();
    let mut par_agg = JoinAgg::default();
    let t = Instant::now();
    let out = tr.span("engine.par_am_idj", None, 0, |_| {
        par_am_idj(r, s, BATCH, &cfg, &AmIdjOptions::default(), 2)
    });
    let par = t.elapsed().as_secs_f64();
    par_agg.add(&out.stats, par);
    par_agg.fill_parallel(&mut ctx.report);
    ctx.report
        .set("engine.threads2_wall_ratio", par / geo.direct_first);
    // No exact incremental join is run here.
    ctx.report.set("engine.am_over_b_wall_ratio", 0.0);
    ctx.report.set("engine.b_over_am_real_dist_ratio", 0.0);
    Ok(())
}
