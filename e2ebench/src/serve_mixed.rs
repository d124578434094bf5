//! `serve_mixed`: a multi-tenant served session over a real Unix socket.
//!
//! Two artifacts are trained on 64³ × 16-frame shock-bubble series with
//! different seeds; A's frames are stored raw and B's as `.rawz`. One
//! `ServeEngine` with two workers serves them through `serve_unix` under a
//! shared byte budget of six raw frames, less than the 32-frame working
//! set. Three tenants: two share A (so the cross-session batcher has work),
//! one uses B.
//!
//! Load is open-loop: a seeded Poisson schedule at the nominal rate, split
//! over two pipelined connections, one sending thread each. A request's
//! latency runs from when it was due, so a stall also delays the requests
//! queued behind it. The pass is the same request log replayed closed-loop
//! at full pipeline depth (the time to serve it at saturation). Traced runs
//! add two higher rungs of the rate ladder and in-process replays that
//! split a round trip into execution and transport.

use crate::fixture::{self, TAU};
use crate::metrics::{Report, VERBS};
use crate::tracer::Tracer;
use crate::util::{median, quantile, secs_since, Rng};
use crate::Args;
use ifet_core::prelude::*;
use ifet_serve::{
    decode_response, encode_request, encode_response, serve_unix, Axis, Request, Response,
    ResponseBody, ServeConfig, ServeEngine, ServerOpts, StatsReport, Verb, WireCriterion,
};
use ifet_volume::{CacheBudget, CacheBudgetHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Scale {
    n: usize,
    stride: u32,
    nominal_rps: f64,
    /// Requests per higher rung of the ladder (traced runs), and the floor
    /// on the nominal rung's count.
    rung_requests: usize,
    min_requests: usize,
    setups: usize,
}

const FULL: Scale = Scale {
    n: 64,
    stride: 4,
    nominal_rps: 6.0,
    rung_requests: 100,
    min_requests: 100,
    setups: 2,
};

const SMOKE: Scale = Scale {
    n: 32,
    stride: 20,
    nominal_rps: 40.0,
    rung_requests: 24,
    min_requests: 20,
    setups: 2,
};

/// Rate ladder as multiples of the nominal rate.
const LADDER: [f64; 3] = [1.0, 2.0, 4.0];
/// The latency limit on p90 that a rung must meet.
const P90_LIMIT_MS: f64 = 300.0;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
const PIPELINE: u32 = 64;
/// Shared budget in raw frames of the served grids.
const BUDGET_FRAMES: u64 = 6;
/// Tenants and the artifact each binds to.
const TENANTS: [(u32, usize); 3] = [(1, 0), (2, 0), (3, 1)];
/// Upper bound on any single schedule, so a wedged server fails the run
/// instead of hanging it.
const SCHEDULE_TIMEOUT: Duration = Duration::from_secs(60);

struct Artifact {
    key: String,
    data_dir: String,
    paths: Vec<PathBuf>,
    session: VisSession,
    track_seed: (u32, u32, u32, u32),
    /// Frames in seeded popularity order (hottest first).
    hot: Vec<u32>,
}

/// One request's life on the wire.
struct Outcome {
    request: Request,
    due: Instant,
    sent: Instant,
    recv: Instant,
    frame: Vec<u8>,
}

impl Outcome {
    fn latency_ms(&self) -> f64 {
        (self.recv - self.due).as_secs_f64() * 1e3
    }
    fn rtt_ms(&self) -> f64 {
        (self.recv - self.sent).as_secs_f64() * 1e3
    }
    fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let sc = if args.smoke { SMOKE } else { FULL };
    let mut rep = Report::new(args);
    // At least enough samples for the p90 to have ten beyond it.
    let nominal = ((sc.nominal_rps * args.seconds).round() as usize).max(sc.min_requests);
    rep.context(
        "fixture",
        format!(
            "{{\"series\": \"shock_bubble\", \"dims\": {}, \"frames\": {}, \"artifacts\": [\"raw\", \"rawz\"], \"tenants\": 3, \"workers\": {WORKERS}, \"connections\": {CONNECTIONS}, \"pipeline\": {PIPELINE}, \"budget_raw_frames\": {BUDGET_FRAMES}, \"nominal_rps\": {}, \"nominal_requests\": {nominal}, \"ladder\": {LADDER:?}, \"p90_limit_ms\": {P90_LIMIT_MS}, \"setups\": {}}}",
            sc.n,
            (255 - 195) / sc.stride + 1,
            sc.nominal_rps,
            sc.setups
        ),
    );

    // Set-up: the artifacts are built several times (median reported), then
    // the server is brought up once and warmed.
    let mut build_s = Vec::new();
    let mut artifacts = Vec::new();
    for _ in 0..sc.setups {
        artifacts.clear();
        let start = Instant::now();
        artifacts = build_artifacts(&sc, args.seed, dir, &rep.tracer)?;
        build_s.push(secs_since(start));
    }
    let bring_up = Instant::now();
    let cfg = ServeConfig {
        budget: CacheBudget::Bytes(BUDGET_FRAMES * fixture::raw_frame_bytes(sc.n)),
        max_inflight_per_tenant: PIPELINE as usize * CONNECTIONS,
        prefetch: 0,
        tenant_quota_bytes: None,
    };
    let mut rng = Rng::new(args.seed ^ 0x5e7e);
    let log = request_log(&mut rng, &artifacts, nominal, sc.n);
    let rungs: Vec<Vec<Request>> = if args.trace {
        LADDER[1..]
            .iter()
            .map(|_| request_log(&mut rng, &artifacts, sc.rung_requests, sc.n))
            .collect()
    } else {
        Vec::new()
    };
    // Every reply the server will write: hellos, opens, two warm-up
    // requests, the nominal rung, one drain pass (two when traced), the
    // higher rungs, and a closing stats request per tenant.
    let passes = if args.trace { 2 } else { 1 };
    let expected = (CONNECTIONS
        + TENANTS.len()
        + 2
        + nominal * (1 + passes)
        + rungs.iter().map(Vec::len).sum::<usize>()
        + TENANTS.len()) as u64;
    let engine = ServeEngine::new(cfg.clone());
    let sock = dir.join("serve.sock");
    let server = {
        let (engine, sock) = (engine.clone(), sock.clone());
        std::thread::spawn(move || {
            serve_unix(
                &sock,
                &engine,
                ServerOpts {
                    max_requests: Some(expected),
                    workers: WORKERS,
                },
            )
        })
    };
    let result = drive(
        &mut rep, &sc, args, &engine, &cfg, &sock, &artifacts, &log, &rungs, build_s, bring_up,
    );
    // The server stops once it has written `expected` replies; if the run
    // failed early, feed it cheap requests until it does.
    let deadline = Instant::now() + Duration::from_secs(10);
    if !server.is_finished() {
        if let Ok(mut c) = UnixStream::connect(&sock) {
            while !server.is_finished() && Instant::now() < deadline {
                if call(&mut c, &hello(0)).is_err() {
                    break;
                }
            }
        }
    }
    while !server.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if !server.is_finished() {
        return Err("server did not stop".into());
    }
    match server.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Err(format!("server failed: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    result?;
    Ok(rep.finish())
}

#[allow(clippy::too_many_arguments)]
fn drive(
    rep: &mut Report,
    sc: &Scale,
    args: &Args,
    engine: &ServeEngine,
    cfg: &ServeConfig,
    sock: &Path,
    artifacts: &[Artifact],
    log: &[Request],
    rungs: &[Vec<Request>],
    build_s: Vec<f64>,
    bring_up: Instant,
) -> Result<(), String> {
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut c = connect(sock)?;
        match call(&mut c, &hello(PIPELINE))?.body {
            ResponseBody::HelloOk { max_pipeline, .. } if max_pipeline == PIPELINE => {}
            other => return Err(format!("hello refused: {other:?}")),
        }
        conns.push(c);
    }
    for &(tenant, a) in &TENANTS {
        let rsp = call(
            &mut conns[0],
            &open(tenant, &artifacts[a], 1_000 + tenant as u64),
        )?;
        if !matches!(rsp.body, ResponseBody::OpenOk { .. }) {
            return Err(format!("open for tenant {tenant} failed: {:?}", rsp.body));
        }
    }
    // Warm-up: one render-slice and one classify, untimed.
    let step = artifacts[0].hot[0];
    for (i, verb) in [
        Verb::RenderSlice {
            step,
            axis: Axis::Z,
            k: (sc.n / 2) as u32,
            adaptive: true,
        },
        Verb::Classify { step, tau: 0.5 },
    ]
    .into_iter()
    .enumerate()
    {
        let rsp = call(
            &mut conns[0],
            &Request {
                request_id: 2_000 + i as u64,
                tenant: 1,
                verb,
            },
        )?;
        if matches!(rsp.body, ResponseBody::Err { .. }) {
            return Err(format!("warm-up request failed: {:?}", rsp.body));
        }
    }
    rep.set("setup_s", median(&build_s) + secs_since(bring_up));

    // The nominal rung: open-loop at the nominal rate.
    let nominal = schedule(log, sc.nominal_rps, 0);
    let untraced = Tracer::new(false);
    let rung0 = run_schedule(&mut conns, &nominal, &untraced)?;
    // The step is a served classification: the verb that carries most of
    // the mix's work. The median over all verbs would sit in the gap
    // between cheap and expensive verbs and jump between them from run to
    // run; it is reported per layer as `serve.req_ms.p50`.
    let classify: Vec<f64> = rung0
        .iter()
        .filter(|o| matches!(o.request.verb, Verb::Classify { .. }))
        .map(Outcome::latency_ms)
        .collect();
    rep.set("step_ms.p50", median(&classify));
    rep.set("bench.step_samples", classify.len() as f64);

    // The pass: the same log, all due at once (closed by the pipeline).
    let drain = schedule_all_now(log, 1_000_000);
    let start = Instant::now();
    let pass = run_schedule(&mut conns, &drain, &untraced)?;
    let pass_s = secs_since(start);
    rep.set("pass_s", pass_s);

    let mut traced_pass = Vec::new();
    let mut higher = Vec::new();
    if args.trace {
        let drain = schedule_all_now(log, 2_000_000);
        let start = Instant::now();
        traced_pass = run_schedule(&mut conns, &drain, &rep.tracer)?;
        rep.set("bench.trace_overhead", secs_since(start) / pass_s - 1.0);
        for (r, (mult, reqs)) in LADDER[1..].iter().zip(rungs).enumerate() {
            let s = schedule(reqs, sc.nominal_rps * mult, 3_000_000 * (r as u64 + 1));
            higher.push(run_schedule(&mut conns, &s, &rep.tracer)?);
        }
    }
    let all: Vec<&Outcome> = rung0
        .iter()
        .chain(&pass)
        .chain(&traced_pass)
        .chain(higher.iter().flatten())
        .collect();

    // Closing stats per tenant: every request was either accepted or
    // refused.
    let mut totals = StatsReport::default();
    for &(tenant, _) in &TENANTS {
        let rsp = call(
            &mut conns[0],
            &Request {
                request_id: 9_000_000 + tenant as u64,
                tenant,
                verb: Verb::ReportStats,
            },
        )?;
        let ResponseBody::StatsOk(s) = rsp.body else {
            return Err(format!("stats for tenant {tenant} failed: {:?}", rsp.body));
        };
        rep.check(
            s.accepted + s.rejected == s.sent,
            format!(
                "serve_mixed: tenant {tenant} accepted {} + rejected {} == sent {}",
                s.accepted, s.rejected, s.sent
            ),
        );
        // Batch and eviction counters are engine-wide; refusals are per
        // tenant.
        totals = StatsReport {
            rejected: totals.rejected + s.rejected,
            ..s
        };
    }
    drop(conns);

    let replay = replay(cfg, artifacts, &all);
    check_replies(rep, &all, &replay.bodies);
    if args.trace {
        layer_metrics(
            rep, sc, artifacts, &rung0, &higher, &replay, &totals, engine,
        )?;
    }
    Ok(())
}

fn build_artifacts(
    sc: &Scale,
    seed: u64,
    dir: &Path,
    tr: &Tracer,
) -> Result<Vec<Artifact>, String> {
    let mut out = Vec::new();
    for (k, compress) in [(0u64, false), (1, true)] {
        let aseed = crate::util::mix(seed ^ (0xa11 + k));
        let LabeledSeries { series, truth, .. } = tr.time("sim.generate", || {
            fixture::shock_bubble(sc.n, sc.stride, aseed)
        });
        let data_dir = dir.join(format!("artifact{k}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        let paths = if compress {
            tr.time("volume.write_series", || {
                ifet_volume::io::write_series_with(&data_dir, "sb", &series, true)
            })
        } else {
            ifet_volume::io::write_series_with(&data_dir, "sb", &series, false)
        }
        .map_err(|e| e.to_string())?;
        let session = fixture::trained_session(series, &truth, aseed, true, tr)?;
        let series = session.series();
        let iatf = session.iatf().expect("IATF trained in set-up");
        let tf0 = iatf.generate(series.steps()[0], series.frame(0));
        let (fi, x, y, z) = fixture::track_seeds(series, &truth, &[tf0], &[0])?[0];
        let key = dir.join(format!("artifact{k}.ifet"));
        tr.time("persist.save", || session.save(&key))
            .map_err(|e| e.to_string())?;
        let paged = OutOfCoreSeries::open_with(paths.clone(), &CacheBudgetHandle::frames(2), 0)
            .map_err(|e| e.to_string())?;
        tr.time("persist.load", || VisSession::load(paged, &key))
            .map_err(|e| e.to_string())?;
        let mut hot = series.steps().to_vec();
        Rng::new(aseed).shuffle(&mut hot);
        out.push(Artifact {
            key: key.display().to_string(),
            data_dir: data_dir.display().to_string(),
            paths,
            track_seed: (fi as u32, x as u32, y as u32, z as u32),
            hot,
            session,
        });
    }
    Ok(out)
}

/// Shares of the request mix: render-slice, classify, track, report-stats
/// and open (a tenant re-binding to its resident artifact).
const MIX: [f64; 5] = [0.40, 0.35, 0.10, 0.10, 0.05];

/// Indices `0..shares.len()` repeated in exact proportion to `shares`
/// (largest remainder) over `count` draws, in seeded order.
fn stratified(rng: &mut Rng, shares: &[f64], count: usize) -> Vec<usize> {
    let exact: Vec<f64> = shares.iter().map(|s| s * count as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &k in by_remainder
        .iter()
        .cycle()
        .take(count - counts.iter().sum::<usize>())
    {
        counts[k] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// The seeded request log. Verb shares, tenants and frame popularity are
/// drawn stratified, so every log has the same mix and only the order and
/// the draws within each stratum change with the seed. Steps follow a
/// Zipf-like law over each artifact's hot order, so hot frames hit the
/// cache and cold ones page in.
fn request_log(rng: &mut Rng, artifacts: &[Artifact], count: usize, n: usize) -> Vec<Request> {
    let frames = artifacts[0].hot.len();
    let zipf: Vec<f64> = (0..frames)
        .map(|r| 1.0 / (r as f64 + 1.0).powf(1.1))
        .collect();
    let total: f64 = zipf.iter().sum();
    let zipf: Vec<f64> = zipf.iter().map(|w| w / total).collect();
    let verbs = stratified(rng, &MIX, count);
    let tenants = stratified(rng, &[1.0 / 3.0; 3], count);
    let ranks = stratified(rng, &zipf, count);
    (0..count)
        .map(|i| {
            let (tenant, a) = TENANTS[tenants[i]];
            let art = &artifacts[a];
            let step = art.hot[ranks[i]];
            let verb = match verbs[i] {
                0 => Verb::RenderSlice {
                    step,
                    axis: [Axis::X, Axis::Y, Axis::Z][rng.below(3)],
                    k: (n / 2) as u32,
                    adaptive: rng.below(2) == 0,
                },
                1 => Verb::Classify { step, tau: 0.5 },
                2 => Verb::Track {
                    criterion: WireCriterion::AdaptiveTf { tau: TAU },
                    seeds: vec![art.track_seed],
                },
                3 => Verb::ReportStats,
                _ => open(tenant, art, 0).verb,
            };
            Request {
                request_id: i as u64 + 1,
                tenant,
                verb,
            }
        })
        .collect()
}

/// Open-loop arrivals at `rate` per second, evenly spaced: request `i` of
/// the seeded log is due at `i / rate` whether or not earlier replies have
/// come back. Even spacing (rather than Poisson gaps) keeps the queueing a
/// 100-request sample sees the same from run to run. Request ids are
/// shifted by `id_base`.
fn schedule(log: &[Request], rate: f64, id_base: u64) -> Vec<(Request, f64)> {
    log.iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = r.clone();
            r.request_id += id_base;
            (r, i as f64 / rate)
        })
        .collect()
}

fn schedule_all_now(log: &[Request], id_base: u64) -> Vec<(Request, f64)> {
    log.iter()
        .map(|r| {
            let mut r = r.clone();
            r.request_id += id_base;
            (r, 0.0)
        })
        .collect()
}

/// Send each request on its connection when it is due (request `j` goes on
/// connection `j % CONNECTIONS`, one thread per connection) and collect
/// every reply.
fn run_schedule(
    conns: &mut [UnixStream],
    sched: &[(Request, f64)],
    tr: &Tracer,
) -> Result<Vec<Outcome>, String> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let parent = tr.current();
    let per_conn: Vec<Vec<(Request, Instant)>> = (0..conns.len())
        .map(|c| {
            sched
                .iter()
                .enumerate()
                .filter(|(j, _)| j % conns.len() == c)
                .map(|(_, (r, at))| (r.clone(), t0 + Duration::from_secs_f64(*at)))
                .collect()
        })
        .collect();
    let results: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(per_conn)
            .map(|(c, reqs)| s.spawn(move || drive_connection(c, reqs)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    for o in &out {
        tr.record(
            "serve.request",
            parent,
            Some(o.request.request_id),
            o.due,
            o.recv,
        );
    }
    out.sort_by_key(|o| o.due);
    Ok(out)
}

fn drive_connection(
    stream: &mut UnixStream,
    reqs: Vec<(Request, Instant)>,
) -> Result<Vec<Outcome>, String> {
    let deadline = Instant::now() + SCHEDULE_TIMEOUT;
    let mut sent: Vec<Option<Instant>> = vec![None; reqs.len()];
    let mut replies: HashMap<u64, (Instant, Vec<u8>)> = HashMap::new();
    let index: HashMap<u64, usize> = reqs
        .iter()
        .enumerate()
        .map(|(i, (r, _))| (r.request_id, i))
        .collect();
    let mut next = 0;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while replies.len() < reqs.len() {
        let now = Instant::now();
        if now > deadline {
            return Err("schedule timed out waiting for replies".into());
        }
        if next < reqs.len() && now >= reqs[next].1 {
            stream
                .write_all(&encode_request(&reqs[next].0))
                .map_err(|e| format!("send: {e}"))?;
            sent[next] = Some(Instant::now());
            next += 1;
            continue;
        }
        let wait = if next < reqs.len() {
            reqs[next].1.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(100))))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(k) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..k]);
                while let Some(frame) = take_frame(&mut buf)? {
                    let rsp = decode_response(&frame).map_err(|e| e.to_string())?;
                    if !index.contains_key(&rsp.request_id) {
                        return Err(format!("reply to unknown request {}", rsp.request_id));
                    }
                    replies.insert(rsp.request_id, (at, frame));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok(reqs
        .into_iter()
        .zip(sent)
        .map(|((request, due), sent)| {
            let (recv, frame) = replies
                .remove(&request.request_id)
                .expect("every request was answered");
            Outcome {
                sent: sent.expect("answered requests were sent"),
                request,
                due,
                recv,
                frame,
            }
        })
        .collect())
}

/// Split one whole response frame (magic, length, payload, CRC) off the
/// front of `buf`.
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > ifet_serve::protocol::MAX_PAYLOAD {
        return Err(format!("reply length {len} over the protocol cap"));
    }
    let total = ifet_serve::protocol::FRAME_OVERHEAD + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(buf.drain(..total).collect()))
}

fn connect(sock: &Path) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return Ok(s),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("connect {}: {e}", sock.display())),
        }
    }
}

/// One blocking request on a connection with nothing else in flight.
fn call(stream: &mut UnixStream, req: &Request) -> Result<Response, String> {
    stream
        .set_read_timeout(Some(SCHEDULE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_request(req))
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = take_frame(&mut buf)? {
            return decode_response(&frame).map_err(|e| e.to_string());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

fn hello(depth: u32) -> Request {
    Request {
        request_id: 0,
        tenant: 0,
        verb: Verb::Hello {
            max_pipeline: depth,
        },
    }
}

fn open(tenant: u32, art: &Artifact, request_id: u64) -> Request {
    Request {
        request_id,
        tenant,
        verb: Verb::Open {
            artifact: art.key.clone(),
            data_dir: art.data_dir.clone(),
        },
    }
}

/// Replies from an in-process engine under the same config, one per
/// distinct (tenant's artifact, verb); `report-stats` replies depend on
/// scheduling and are replayed for timing only.
struct Replay {
    bodies: HashMap<String, ResponseBody>,
    exec_ms: HashMap<String, f64>,
    /// Execution times by verb name.
    exec_by_verb: Vec<(&'static str, f64)>,
}

fn replay_key(req: &Request) -> String {
    let artifact = TENANTS
        .iter()
        .find(|(t, _)| *t == req.tenant)
        .map_or(usize::MAX, |(_, a)| *a);
    format!("{artifact}:{:?}", req.verb)
}

fn replay(cfg: &ServeConfig, artifacts: &[Artifact], outcomes: &[&Outcome]) -> Replay {
    let engine = ServeEngine::new(cfg.clone());
    for &(tenant, a) in &TENANTS {
        engine.handle(open(tenant, &artifacts[a], 0));
    }
    let mut bodies = HashMap::new();
    let mut exec_ms = HashMap::new();
    let mut exec_by_verb = Vec::new();
    for o in outcomes {
        let key = replay_key(&o.request);
        if exec_ms.contains_key(&key) {
            continue;
        }
        let start = Instant::now();
        let rsp = engine.handle(o.request.clone());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        exec_ms.insert(key.clone(), ms);
        exec_by_verb.push((o.request.verb.name(), ms));
        if !matches!(o.request.verb, Verb::ReportStats) {
            bodies.insert(key, rsp.body);
        }
    }
    Replay {
        bodies,
        exec_ms,
        exec_by_verb,
    }
}

fn check_replies(rep: &mut Report, outcomes: &[&Outcome], bodies: &HashMap<String, ResponseBody>) {
    let mut mismatched = 0;
    let mut errors = 0;
    for o in outcomes {
        let rsp = decode_response(&o.frame).expect("frames were decoded on receipt");
        let is_err = matches!(rsp.body, ResponseBody::Err { .. });
        errors += u64::from(is_err);
        rep.op(!is_err, &format!("{} request", o.request.verb.name()));
        if let Some(body) = bodies.get(&replay_key(&o.request)) {
            let expected = encode_response(&Response {
                request_id: o.request.request_id,
                tenant: o.request.tenant,
                body: body.clone(),
            });
            mismatched += usize::from(expected != o.frame);
        }
    }
    rep.check(
        mismatched == 0,
        format!(
            "serve_mixed: {mismatched} of {} replies differ from the in-process replay",
            outcomes.len()
        ),
    );
    if errors > 0 {
        eprintln!("e2ebench: {errors} served requests returned errors");
    }
}

/// Whether a rung met the latency limit without a growing backlog (the
/// last quarter of its requests no slower than twice the first quarter).
fn rung_ok(rung: &[Outcome]) -> bool {
    let lat: Vec<f64> = rung.iter().map(Outcome::latency_ms).collect();
    let q = lat.len() / 4;
    let failed = rung.iter().any(|o| {
        matches!(
            decode_response(&o.frame).map(|r| r.body),
            Ok(ResponseBody::Err { .. })
        )
    });
    !failed
        && quantile(&lat, 0.9) <= P90_LIMIT_MS
        && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]).max(10.0)
}

/// Completed requests per second over the rung's span.
fn achieved_rate(rung: &[Outcome]) -> f64 {
    let first = rung.iter().map(|o| o.due).min().expect("non-empty rung");
    let last = rung.iter().map(|o| o.recv).max().expect("non-empty rung");
    rung.len() as f64 / (last - first).as_secs_f64()
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    rep: &mut Report,
    sc: &Scale,
    artifacts: &[Artifact],
    rung0: &[Outcome],
    higher: &[Vec<Outcome>],
    replay: &Replay,
    totals: &StatsReport,
    engine: &ServeEngine,
) -> Result<(), String> {
    let lat: Vec<f64> = rung0.iter().map(Outcome::latency_ms).collect();
    rep.set("serve.req_ms.p50", median(&lat));
    rep.set("serve.req_ms.p90", quantile(&lat, 0.9));
    let late: Vec<f64> = rung0.iter().map(Outcome::late_ms).collect();
    rep.set("serve.gen_late_ms.p90", quantile(&late, 0.9));
    for verb in VERBS {
        let rtt: Vec<f64> = rung0
            .iter()
            .filter(|o| o.request.verb.name() == *verb)
            .map(Outcome::rtt_ms)
            .collect();
        let exec: Vec<f64> = replay
            .exec_by_verb
            .iter()
            .filter(|(v, _)| v == verb)
            .map(|(_, ms)| *ms)
            .collect();
        rep.set(&format!("serve.rtt_ms.{verb}.p50"), median(&rtt));
        rep.set(&format!("serve.rtt_ms.{verb}.p90"), quantile(&rtt, 0.9));
        rep.set(&format!("serve.exec_ms.{verb}.p50"), median(&exec));
    }
    let mut max_rate = 0.0;
    for (r, rung) in std::iter::once(rung0)
        .chain(higher.iter().map(Vec::as_slice))
        .enumerate()
    {
        let transport: Vec<f64> = rung
            .iter()
            .map(|o| {
                o.rtt_ms()
                    - replay
                        .exec_ms
                        .get(&replay_key(&o.request))
                        .copied()
                        .unwrap_or(0.0)
            })
            .collect();
        rep.set(
            &format!("serve.transport_ms.rung{r}.p50"),
            median(&transport),
        );
        if rung_ok(rung) {
            max_rate = achieved_rate(rung);
        }
    }
    rep.set("serve.max_rate_rps", max_rate);

    let jobs = totals.batch_jobs as f64;
    rep.set(
        "serve.batch_jobs_per_cycle",
        jobs / (totals.batch_cycles as f64).max(1.0),
    );
    rep.set(
        "serve.batch_rows_per_job",
        totals.batch_rows as f64 / jobs.max(1.0),
    );
    rep.set("serve.rejected", totals.rejected as f64);
    rep.set("serve.idle_evictions", totals.idle_evictions as f64);
    rep.set("serve.quota_evictions", totals.quota_evictions as f64);

    // Protocol codec replayed on the nominal rung's messages.
    let start = Instant::now();
    for o in rung0 {
        std::hint::black_box(encode_request(&o.request));
        std::hint::black_box(decode_response(&o.frame).map_err(|e| e.to_string())?);
    }
    rep.set(
        "protocol.codec_us",
        start.elapsed().as_secs_f64() * 1e6 / rung0.len() as f64,
    );

    // Volume: the engine's paging counters across both artifacts, and cold
    // page-ins replayed on the served frame files.
    let mut stats = ifet_volume::CacheStats::default();
    for a in artifacts {
        if let Some(shared) = engine.resident(&a.key) {
            let s = shared.series().stats();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.evictions += s.evictions;
            stats.bytes_paged += s.bytes_paged;
            stats.read_retries += s.read_retries;
        }
    }
    let tr = &rep.tracer;
    for a in artifacts {
        let ooc = OutOfCoreSeries::open_with(a.paths.clone(), &CacheBudgetHandle::frames(1), 0)
            .map_err(|e| e.to_string())?;
        for i in 0..ooc.len() {
            fixture::page(tr, &ooc, i)?;
        }
    }
    fixture::set_paging_metrics(rep, stats, engine.budget().stats());

    // Layer replays on artifact B (the compressed one) and A's session.
    let b = &artifacts[1];
    let voxels = sc.n * sc.n * sc.n;
    let raw_read = fixture::replay_read_decode(&rep.tracer, &b.paths, voxels)?;
    let raw_written = fixture::raw_frame_bytes(sc.n) * b.paths.len() as u64;
    fixture::set_codec_metrics(rep, raw_read, raw_written, fixture::file_bytes(&b.paths));
    let a = &artifacts[0];
    let series = a.session.series();
    let tr = &rep.tracer;
    fixture::iatf_split(tr, a.session.iatf().expect("IATF trained"), series);
    let clf = a.session.classifier().expect("classifier trained");
    let cmap = a.session.colormap;
    for (t, frame) in series.iter() {
        tr.time("extract.classify_frame", || {
            clf.classify_frame(frame, ifet_volume::FrameSource::normalized_time(series, t))
        });
        tr.time("render.slice", || {
            ifet_render::render_slice(frame, ifet_render::SliceAxis::Z, sc.n / 2, cmap)
        });
    }
    let (fi, x, y, z) = a.track_seed;
    let tfs = a.session.adaptive_tfs().expect("IATF trained");
    let criterion = AdaptiveTfCriterion::new(tfs, TAU).map_err(|e| e.to_string())?;
    let masks = {
        let _t = tr.span("track.track");
        fixture::grow(
            tr,
            series,
            &criterion,
            &[(fi as usize, x as usize, y as usize, z as usize)],
        )?
    };
    fixture::set_iatf_split(rep);
    fixture::set_track_metrics(rep, &masks);
    let classify_s = median(&rep.tracer.ms("extract.classify_frame")) / 1e3;
    rep.set("extract.classify_frame_s", classify_s);
    rep.set("extract.classify_mvox_s", voxels as f64 / 1e6 / classify_s);
    rep.set("render.slice_ms", median(&rep.tracer.ms("render.slice")));
    fixture::set_training_metrics(rep);
    rep.set(
        "persist.save_s",
        median(&rep.tracer.ms("persist.save")) / 1e3,
    );
    rep.set(
        "persist.load_s",
        median(&rep.tracer.ms("persist.load")) / 1e3,
    );
    Ok(())
}
