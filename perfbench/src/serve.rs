//! `serve`: an in-process `lego_serve::Server` on TCP loopback under an
//! open-loop load.
//!
//! The server runs with one worker per CPU and its cache warmed during
//! set-up. One connection carries the load: a sending thread sends
//! requests cycling `mix::roster("all")` (dense, sparse, clustered) in a
//! seeded order on a fixed schedule, and a receiving thread reads the
//! in-order replies. Phases: light (1,000 req/s), loaded (8,000 req/s),
//! then a rate ladder (8k to 20k req/s). Nearly all of the time is in the
//! server's frame, wire, scheduler, thread and socket work; its cache
//! only serves hits.
//!
//! TCP rather than a Unix socket, because remote clients use TCP, and
//! neither end disables Nagle's algorithm. Under load each reply waits
//! for the client's delayed ACK, which the next request carries, so the
//! loaded latency is one inter-arrival gap plus the server's work. At
//! light load a connection falls into the same state at its first stall
//! and stays in it until it idles, when latency becomes the 1 ms gap;
//! one long light phase would read either state at random. The light
//! phase therefore runs in parts, each from an idle connection, and the
//! share of its requests that waited a gap is `serve.light_stalled_share`.
//! Light-load latency also moves between two levels from run to run on
//! a shared host (CPU wake-up), so it is reported but not gated.

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use lego_eval::{EvalRequest, EvalSession, StatusCode};
use lego_explorer::SplitMix64;
use lego_obs::{Obs, Summary};
use lego_serve::{mix, Client, Server, ServerConfig};

use crate::openloop::{self, Phase};
use crate::report::{unattributed, Checks, Metrics};
use crate::{setup_median, stats, Ctx};

const LIGHT_RPS: f64 = 1000.0;
const LOADED_RPS: f64 = 8000.0;
const LADDER_RPS: [f64; 5] = [8000.0, 11_000.0, 14_000.0, 17_000.0, 20_000.0];
/// Share of the run's seconds each of the light and loaded phases gets;
/// the ladder rungs share the rest.
const PHASE_SHARE: f64 = 0.2;
/// Parts the light phase runs in, each from an idle connection.
const LIGHT_PARTS: usize = 10;
/// Attempts at a light or loaded phase before the run fails.
const ATTEMPTS: usize = 3;
/// A reply later than this means the server stopped answering.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Set-ups per run; `setup_s` is their median. One takes about a
/// millisecond, so many are cheap and steady the median.
const SETUPS: usize = 21;
/// Requests in the seeded request order (cycled).
const ORDER_LEN: usize = 4096;

/// The request roster, each request's expected reply bytes, and the
/// seeded order requests are sent in.
struct Load {
    roster: Vec<EvalRequest>,
    expected: Vec<Vec<u8>>,
    order: Vec<usize>,
}

impl Load {
    fn new(seed: u64) -> Load {
        let roster = mix::roster("all").expect("the \"all\" mix exists");
        let expected = roster
            .iter()
            .map(|r| EvalSession::new().evaluate(r).encode())
            .collect();
        let mut rng = SplitMix64::new(seed);
        let order = (0..ORDER_LEN).map(|_| rng.below(roster.len())).collect();
        Load {
            roster,
            expected,
            order,
        }
    }

    fn pick(&self, i: usize) -> usize {
        self.order[i % ORDER_LEN]
    }
}

/// A running server with its one load connection.
struct Rig {
    // Field order is drop order: the connection closes before the server
    // shuts down, so its connection threads see end of stream and exit.
    sender: Client<TcpStream>,
    receiver: Client<TcpStream>,
    server: Server,
}

fn connect(addr: SocketAddr) -> std::io::Result<(Client<TcpStream>, Client<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok((Client::over(stream.try_clone()?), Client::over(stream)))
}

/// Starts a server, connects, and warms the cache with one synchronous
/// round trip per roster entry, checking each reply.
fn start(checks: &mut Checks, load: &Load, nproc: usize, obs: Obs) -> Rig {
    let server = Server::new(ServerConfig {
        workers: nproc,
        obs,
        ..Default::default()
    });
    let addr = server
        .listen_tcp("127.0.0.1:0")
        .expect("bind a loopback port");
    let (mut sender, receiver) = connect(addr).expect("connect to the loopback server");
    for (r, want) in load.roster.iter().zip(&load.expected) {
        let got = sender.evaluate_bytes(r);
        checks.check(got.as_ref().is_ok_and(|b| b == want), || {
            "warm-up reply differs from offline evaluation".to_string()
        });
    }
    Rig {
        sender,
        receiver,
        server,
    }
}

/// Reply tallies of one phase's receiving thread.
#[derive(Default)]
struct Received {
    ok: usize,
    refused: usize,
    mismatched: usize,
    errors: usize,
    on_time: usize,
    last_on_time: Option<Instant>,
    latency_us: Vec<f64>,
}

/// Runs one open-loop phase at `rate` for `seconds`, counting each reply
/// as a check: an OK reply must equal offline evaluation byte for byte,
/// and any other reply must be a queue-full refusal.
fn phase(checks: &mut Checks, rig: &mut Rig, load: &Load, rate: f64, seconds: f64) -> Phase {
    let n = openloop::requests_in(rate, seconds);
    // Both threads start before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + Duration::from_nanos(openloop::due_ns(i, rate));
    let deadline = due(n) + Duration::from_secs_f64(openloop::LATENCY_LIMIT_US / 1e6);
    let (sender, receiver) = (&mut rig.sender, &mut rig.receiver);
    let (sent, lag_us, send_us, got) = thread::scope(|s| {
        let send = s.spawn(|| {
            let mut lag_us = Vec::with_capacity(n);
            let mut send_us = Vec::with_capacity(n);
            let mut sent = 0;
            for i in 0..n {
                let at = due(i);
                let now = Instant::now();
                if now < at {
                    thread::sleep(at - now);
                }
                let t = Instant::now();
                lag_us.push((t - at).as_secs_f64() * 1e6);
                if sender.send(&load.roster[load.pick(i)]).is_err() {
                    break;
                }
                send_us.push(t.elapsed().as_secs_f64() * 1e6);
                sent += 1;
            }
            (sent, lag_us, send_us)
        });
        let recv = s.spawn(|| {
            let mut got = Received {
                latency_us: Vec::with_capacity(n),
                ..Default::default()
            };
            for i in 0..n {
                let Ok((status, body)) = receiver.recv_raw() else {
                    got.errors += n - i;
                    break;
                };
                let now = Instant::now();
                if status == StatusCode::OK {
                    if body != load.expected[load.pick(i)] {
                        got.mismatched += 1;
                    } else {
                        got.ok += 1;
                        got.latency_us.push((now - due(i)).as_secs_f64() * 1e6);
                        if now <= deadline {
                            got.on_time += 1;
                            got.last_on_time = Some(now);
                        }
                    }
                } else if status == StatusCode::QUEUE_FULL {
                    got.refused += 1;
                } else {
                    got.errors += 1;
                }
            }
            got
        });
        let (sent, lag_us, send_us) = send.join().expect("sender thread");
        (sent, lag_us, send_us, recv.join().expect("receiver thread"))
    });
    for _ in 0..got.ok + got.refused {
        checks.check(true, String::new);
    }
    for _ in 0..got.mismatched {
        checks.check(false, || {
            format!("{rate} req/s: a reply differs from offline evaluation")
        });
    }
    for _ in 0..got.errors {
        checks.check(false, || {
            format!("{rate} req/s: a request got no valid reply")
        });
    }
    // Let the connection's queues settle between phases.
    thread::sleep(Duration::from_millis(20));
    Phase {
        offered: rate,
        sent,
        ok: got.ok,
        on_time: got.on_time,
        span_s: got.last_on_time.map_or(0.0, |t| (t - t0).as_secs_f64()),
        refused: got.refused,
        latency_us: got.latency_us,
        lag_us,
        send_us,
    }
}

/// A light or loaded phase, measured again while invalid (sender late or
/// offered rate not completed). The phase runs as `parts` equal parts,
/// each starting from an idle connection. The last attempt is returned
/// either way; an invalid one fails the run.
fn valid_phase(
    checks: &mut Checks,
    rig: &mut Rig,
    load: &Load,
    rate: f64,
    seconds: f64,
    parts: usize,
) -> Phase {
    let mut p = Phase::default();
    for _ in 0..ATTEMPTS {
        p = Phase::default();
        for _ in 0..parts {
            p.merge(phase(checks, rig, load, rate, seconds / parts as f64));
        }
        if p.valid() {
            return p;
        }
    }
    checks.check(false, || {
        format!(
            "{rate} req/s phase invalid {ATTEMPTS} times: sender lag p99 {:.0} us, achieved {:.0} req/s",
            p.lag_p99(),
            p.achieved()
        )
    });
    p
}

/// Share of a light phase's requests that waited about one inter-arrival
/// gap or more: the replies that left only with the next request.
fn stalled_share(light: &Phase) -> f64 {
    let gap_us = 1e6 / light.offered;
    let waited = light
        .latency_us
        .iter()
        .filter(|&&l| l >= 0.9 * gap_us)
        .count();
    waited as f64 / light.latency_us.len().max(1) as f64
}

fn span_mean_us(s: &Summary, name: &str) -> f64 {
    s.spans
        .get(name)
        .filter(|st| st.count > 0)
        .map_or(0.0, |st| st.total_ns as f64 / st.count as f64 / 1e3)
}

fn report_phase(m: &mut Metrics, label: &str, p: &Phase) {
    let n = p.latency_us.len();
    m.sampled(&format!("serve_{label}_p50_us"), p.latency(0.5), "us", n);
    m.sampled(&format!("serve_{label}_p90_us"), p.latency(0.9), "us", n);
    if stats::supports(n, 0.99) {
        m.sampled(&format!("serve_{label}_p99_us"), p.latency(0.99), "us", n);
    }
}

pub fn run(ctx: &mut Ctx) {
    let (seed, nproc, secs) = (ctx.seed, ctx.nproc, ctx.seconds);
    let checks = &mut ctx.checks;
    let (setup_s, (load, mut rig)) = setup_median(SETUPS, || {
        let load = Load::new(seed);
        let rig = start(checks, &load, nproc, Obs::disabled());
        (load, rig)
    });

    if !ctx.trace {
        let light = valid_phase(
            &mut ctx.checks,
            &mut rig,
            &load,
            LIGHT_RPS,
            secs * PHASE_SHARE,
            LIGHT_PARTS,
        );
        let loaded = valid_phase(
            &mut ctx.checks,
            &mut rig,
            &load,
            LOADED_RPS,
            secs * PHASE_SHARE,
            1,
        );
        let rung_s = secs * (1.0 - 2.0 * PHASE_SHARE) / LADDER_RPS.len() as f64;
        let ladder: Vec<Phase> = LADDER_RPS
            .iter()
            .map(|&rate| phase(&mut ctx.checks, &mut rig, &load, rate, rung_s))
            .collect();
        // With no sustained rate the lowest rung's achieved rate stands
        // in; its row below says it was not sustained.
        let best = openloop::max_sustained(&ladder).unwrap_or(&ladder[0]);

        let m = &mut ctx.metrics;
        let n = loaded.latency_us.len();
        m.sampled("op1_p50_ms", loaded.latency(0.5) / 1e3, "ms", n);
        m.sampled("op1_p90_ms", loaded.latency(0.9) / 1e3, "ms", n);
        // The gated second latency is the ladder's first rate above the
        // loaded one; light-load latency is too host-dependent to gate.
        let busier = &ladder[1];
        m.sampled(
            "op2_p50_ms",
            busier.latency(0.5) / 1e3,
            "ms",
            busier.latency_us.len(),
        );
        m.sampled("rate_per_s", best.achieved(), "1/s", best.ok);
        m.sampled("setup_s", setup_s, "s", SETUPS);
        report_phase(m, "light", &light);
        m.total("serve.light_stalled_share", stalled_share(&light), "ratio");
        report_phase(m, "loaded", &loaded);
        m.sampled("serve_max_rps", best.achieved(), "1/s", best.ok);
        for p in &ladder {
            let label = format!("serve.ladder_{}", p.offered as u64);
            let n = p.latency_us.len();
            m.sampled(&format!("{label}.achieved_rps"), p.achieved(), "1/s", p.ok);
            m.sampled(&format!("{label}.p50_us"), p.latency(0.5), "us", n);
            m.sampled(&format!("{label}.p90_us"), p.latency(0.9), "us", n);
            m.sampled(&format!("{label}.gen_lag_p99_us"), p.lag_p99(), "us", n);
            m.total(&format!("{label}.refused"), p.refused as f64, "count");
            let sustained = f64::from(u8::from(p.sustained()));
            m.total(&format!("{label}.sustained"), sustained, "bool");
        }
        return;
    }

    // Traced: the loaded phase on the untraced server, then the light
    // and loaded phases on a server recording spans, a quarter of the
    // seconds each.
    let quarter = secs / 4.0;
    let plain = valid_phase(&mut ctx.checks, &mut rig, &load, LOADED_RPS, quarter, 1);
    drop(rig);
    let obs = Obs::wall_clock();
    let mut rig = start(&mut ctx.checks, &load, nproc, obs.clone());
    let before = rig.server.gauges();
    obs.reset();
    let light = valid_phase(
        &mut ctx.checks,
        &mut rig,
        &load,
        LIGHT_RPS,
        quarter,
        LIGHT_PARTS,
    );
    let loaded = valid_phase(&mut ctx.checks, &mut rig, &load, LOADED_RPS, quarter, 1);
    let after = rig.server.gauges();
    let s = obs.summary();
    drop(rig);

    // Warm offline evaluation of the same roster: the floor a server
    // round trip cannot beat.
    let session = EvalSession::new();
    for r in &load.roster {
        session.evaluate(r);
    }
    let reps = 2000;
    let t = Instant::now();
    for i in 0..reps {
        std::hint::black_box(session.evaluate(&load.roster[load.pick(i)]));
    }
    let offline_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let m = &mut ctx.metrics;
    m.total("serve.light_stalled_share", stalled_share(&light), "ratio");
    let decode = span_mean_us(&s, "serve/decode_request");
    let evaluate = span_mean_us(&s, "serve/evaluate");
    let write = span_mean_us(&s, "serve/reply_write");
    let all: Vec<f64> = light
        .latency_us
        .iter()
        .chain(&loaded.latency_us)
        .copied()
        .collect();
    let sends: Vec<f64> = light
        .send_us
        .iter()
        .chain(&loaded.send_us)
        .copied()
        .collect();
    let samples = all.len();
    m.sampled("serve.decode_us", decode, "us", samples);
    m.sampled("serve.evaluate_us", evaluate, "us", samples);
    m.sampled("serve.reply_write_us", write, "us", samples);
    m.sampled(
        "eval.evaluate_us",
        span_mean_us(&s, "eval/evaluate"),
        "us",
        samples,
    );
    m.sampled(
        "serve.client_send_us",
        stats::mean(&sends).unwrap_or(0.0),
        "us",
        sends.len(),
    );
    m.sampled(
        "serve.unattributed_us",
        unattributed(stats::mean(&all).unwrap_or(0.0), &[decode, evaluate, write]),
        "us",
        samples,
    );
    m.sampled("eval.offline_us", offline_us, "us", reps);
    m.sampled(
        "serve.light_p50_us",
        light.latency(0.5),
        "us",
        light.latency_us.len(),
    );
    m.sampled(
        "serve.light_p90_us",
        light.latency(0.9),
        "us",
        light.latency_us.len(),
    );
    for (label, p) in [("light", &light), ("loaded", &loaded)] {
        m.sampled(
            &format!("serve.{label}.achieved_rps"),
            p.achieved(),
            "1/s",
            p.ok,
        );
        m.sampled(
            &format!("serve.{label}.gen_lag_p99_us"),
            p.lag_p99(),
            "us",
            p.lag_us.len(),
        );
        m.sampled(
            &format!("serve.{label}_p99_us"),
            p.latency(0.99),
            "us",
            p.latency_us.len(),
        );
    }
    m.total("serve.sent", (light.sent + loaded.sent) as f64, "count");
    m.total("serve.ok", (light.ok + loaded.ok) as f64, "count");
    m.total(
        "serve.refused",
        (light.refused + loaded.refused) as f64,
        "count",
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.total(
        "eval.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.total(
        "serve.trace_overhead_us",
        loaded.latency(0.5) - plain.latency(0.5),
        "us",
    );
}
