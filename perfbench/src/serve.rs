//! The `serve-tenants` workload: an in-process session daemon driven as a
//! closed loop from two client connections.
//!
//! Each client runs sessions back to back — create-session (the
//! `docs/SERVING.md` frame: colors cycling 1–3, a seed, the functional
//! engine, no capacity), five `append-edges` of 200 loop-free edges,
//! `query-count`, `close` — and sends its next request only once the
//! previous reply arrived. Latencies are taken client-side. Each client
//! first runs one colour cycle of sessions, checked but not timed, on a
//! connection it then closes, so the measured loop starts on a warm daemon
//! and a fresh connection.

use crate::spanned::{reset_ranks, Spanned};
use crate::{median, percentile, Report, RunArgs};
use pim_graph::{CooGraph, Edge};
use pim_server::{ServeConfig, Server};
use pim_sim::{PimSystem, RankCluster};
use pim_tc::{ExecBackend, TcConfig, TcSession};
use serde_json::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const CLIENTS: usize = 2;
const APPENDS: usize = 5;
const EDGES_PER_APPEND: usize = 200;
/// Vertex range of a session's edges: dense enough that every session
/// holds triangles.
const SESSION_NODES: u32 = 200;
/// A run continues past `--seconds` until this many queries completed, so
/// the p90 has at least fifteen samples beyond it.
const MIN_QUERIES: usize = 150;
/// Seconds of daemon starts per run; `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 1.5;
/// Daemons started before the batch is drained together, so the accept
/// loops' 10 ms poll is waited out once per batch, not once per start.
const SETUP_BATCH: usize = 16;
const VERBS: [&str; 4] = ["create", "append", "query", "close"];
/// Sessions each client runs, checked but not timed, before the measured
/// loop: one colour cycle, so every reservoir size has been allocated once.
const WARMUP_SESSIONS: usize = 3;
/// Fresh connections whose first reply is timed in a traced run.
const FIRST_OP_PROBES: usize = 10;

/// One session's inputs: its create frame and its edge batches, each batch
/// already canonical (`u < v`, no repeats across the session) so the
/// daemon's own preprocessing keeps it as is.
struct SessionInput {
    colors: u32,
    seed: u64,
    batches: Vec<Vec<Edge>>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn session_input(seed: u64, client: usize, index: usize) -> SessionInput {
    let mut state = seed ^ ((client as u64) << 48) ^ (index as u64).wrapping_mul(0x2545_f491);
    let mut seen = HashSet::new();
    let mut batches = Vec::with_capacity(APPENDS);
    for _ in 0..APPENDS {
        let mut batch = Vec::with_capacity(EDGES_PER_APPEND);
        while batch.len() < EDGES_PER_APPEND {
            let r = splitmix(&mut state);
            let (a, b) = (
                (r as u32) % SESSION_NODES,
                ((r >> 32) as u32) % SESSION_NODES,
            );
            let (u, v) = (a.min(b), a.max(b));
            if u != v && seen.insert((u, v)) {
                batch.push(Edge { u, v });
            }
        }
        batches.push(batch);
    }
    SessionInput {
        // Every client runs the same colors at the same index, so the
        // largest (three-color) sessions of all clients overlap and the
        // daemon's peak memory does not hang on how the clients drift.
        colors: 1 + (index % 3) as u32,
        seed: splitmix(&mut state) >> 16,
        batches,
    }
}

fn edges_json(batch: &[Edge]) -> String {
    let pairs: Vec<String> = batch.iter().map(|e| format!("[{},{}]", e.u, e.v)).collect();
    format!("[{}]", pairs.join(","))
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends one frame and waits for its reply; returns the reply and the
    /// client-side latency in seconds.
    fn call(&mut self, frame: &str) -> Result<(Value, f64), String> {
        let start = Instant::now();
        writeln!(self.writer, "{frame}").map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        let latency = start.elapsed().as_secs_f64();
        let v = serde_json::from_str(&line).map_err(|e| format!("bad reply {line:?}: {e:?}"))?;
        Ok((v, latency))
    }
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

/// What the clients observed.
#[derive(Default)]
struct Observed {
    /// Latency samples (seconds) per verb, in [`VERBS`] order.
    latency: [Vec<f64>; 4],
    /// Per session: seconds from the first append to the query result.
    session_wall: Vec<f64>,
    sessions: usize,
    attempted: u64,
    failures: Vec<String>,
    /// The first three-color session: its echoed config, its batches and
    /// the estimate bits the daemon answered, for the in-process replay.
    replay: Option<(Value, Vec<Vec<Edge>>, Option<u64>)>,
}

/// Runs one client's closed loop, on a connection of its own, over
/// sessions `first, first + 1, ...` until `done(next index)`.
fn client(
    addr: SocketAddr,
    seed: u64,
    id: usize,
    first: usize,
    done: &(dyn Fn(usize) -> bool + Sync),
    queries: &AtomicUsize,
    observed: &Mutex<Observed>,
) -> Result<(), String> {
    let mut conn = Conn::open(addr)?;
    let mut index = first;
    while !done(index) {
        let input = session_input(seed, id, index);
        index += 1;
        let mut local = Observed::default();
        let (v, lat) = conn.call(&format!(
            r#"{{"op":"create-session","colors":{},"seed":{},"backend":"functional"}}"#,
            input.colors, input.seed
        ))?;
        local.attempted += 1;
        local.latency[0].push(lat);
        if !ok(&v) {
            local
                .failures
                .push(format!("create-session refused: {v:?}"));
            observed.lock().expect("observations poisoned").merge(local);
            continue;
        }
        let session = v.get("session").and_then(Value::as_u64).unwrap_or(0);
        let config = v.get("config").cloned();
        let first_append = Instant::now();
        for batch in &input.batches {
            let (v, lat) = conn.call(&format!(
                r#"{{"op":"append-edges","session":{session},"edges":{}}}"#,
                edges_json(batch)
            ))?;
            local.attempted += 1;
            local.latency[1].push(lat);
            if !ok(&v) {
                local.failures.push(format!("append-edges failed: {v:?}"));
            }
        }
        let (v, lat) = conn.call(&format!(r#"{{"op":"query-count","session":{session}}}"#))?;
        local
            .session_wall
            .push(first_append.elapsed().as_secs_f64());
        local.attempted += 1;
        local.latency[2].push(lat);
        queries.fetch_add(1, Ordering::SeqCst);
        let all: Vec<Edge> = input.batches.iter().flatten().copied().collect();
        let want = pim_graph::triangle::count_exact(&CooGraph::from_edges(all));
        let got = v.get("triangles").and_then(Value::as_u64);
        if !ok(&v) || got != Some(want) {
            local.failures.push(format!(
                "session {session}: query-count {v:?}, want {want} triangles"
            ));
        }
        if id == 0 && input.colors == 3 {
            let bits = v.get("estimate_bits").and_then(Value::as_u64);
            local.replay = config.map(|c| (c, input.batches.clone(), bits));
        }
        let (v, lat) = conn.call(&format!(r#"{{"op":"close","session":{session}}}"#))?;
        local.attempted += 1;
        local.latency[3].push(lat);
        if !ok(&v) {
            local.failures.push(format!("close failed: {v:?}"));
        }
        local.sessions += 1;
        observed.lock().expect("observations poisoned").merge(local);
    }
    Ok(())
}

impl Observed {
    fn merge(&mut self, other: Observed) {
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            a.extend(b);
        }
        self.session_wall.extend(other.session_wall);
        self.sessions += other.sessions;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        if self.replay.is_none() {
            self.replay = other.replay;
        }
    }
}

/// Runs the clients, each on a thread of its own, until `done`; returns
/// what they observed and the errors that ended a client early.
fn run_clients(
    addr: SocketAddr,
    seed: u64,
    first: usize,
    done: &(dyn Fn(usize) -> bool + Sync),
    queries: &AtomicUsize,
) -> (Observed, Vec<String>) {
    let observed = Mutex::new(Observed::default());
    let errors = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let observed = &observed;
                s.spawn(move || client(addr, seed, id, first, done, queries, observed))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some("client thread panicked".to_string()),
            })
            .collect()
    });
    let observed = observed.into_inner().expect("observations poisoned");
    (observed, errors)
}

/// Counts the clients' operations and failures into `report`.
fn record(report: &mut Report, mut observed: Observed, errors: Vec<String>) -> Observed {
    for e in errors {
        report.check(false, || format!("client connection failed: {e}"));
    }
    report.attempted += observed.attempted;
    report.failed += observed.failures.len() as u64;
    report.failures.append(&mut observed.failures);
    observed
}

/// Starts the daemon as the workload configures it.
fn start_server() -> Result<Server, String> {
    Server::start(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
}

/// Runs `serve-tenants` and fills `report`.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let budget = Instant::now();
    let mut timed_start = || -> Result<Server, String> {
        let t = Instant::now();
        let server = start_server()?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(server)
    };
    while budget.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let batch = (0..SETUP_BATCH)
            .map(|_| timed_start())
            .collect::<Result<Vec<_>, _>>()?;
        batch.iter().for_each(Server::begin_drain);
        for mut old in batch {
            old.finish();
        }
    }
    let mut server = timed_start()?;
    let addr = server.addr();

    // Warm-up: the first sessions pay for memory the daemon has not
    // touched yet. Their answers are checked; their timings are dropped.
    let (warm, errors) = run_clients(
        addr,
        args.seed,
        0,
        &|i| i >= WARMUP_SESSIONS,
        &AtomicUsize::new(0),
    );
    record(report, warm, errors);

    let queries = AtomicUsize::new(0);
    let started = Instant::now();
    let (observed, errors) = run_clients(
        addr,
        args.seed,
        WARMUP_SESSIONS,
        &|_| {
            started.elapsed().as_secs_f64() >= args.seconds
                && queries.load(Ordering::SeqCst) >= MIN_QUERIES
        },
        &queries,
    );
    let loop_s = started.elapsed().as_secs_f64();
    let observed = record(report, observed, errors);

    // The daemon's own verdict: every lease returned.
    let stats = Conn::open(addr)?.call(r#"{"op":"stats"}"#)?.0;
    let leased = stats.get("leased_dpus").and_then(Value::as_u64);
    report.check(leased == Some(0), || {
        format!("leased_dpus after the run: {leased:?}")
    });
    let count = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    let registry = server.hub();
    let counter = |name: &str| -> f64 {
        registry
            .registry()
            .counter_values(name)
            .iter()
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let (admitted, rejected) = (count("admitted"), count("rejected"));
    let ops = counter("pim_serve_ops_total");
    let frames_rejected = counter("pim_serve_frames_rejected_total");
    // A new connection's first frame waits for the accept loop's next
    // poll; the sessions above open too few connections to show it.
    let first_op = if args.trace {
        (0..FIRST_OP_PROBES)
            .map(|_| Ok(Conn::open(addr)?.call(r#"{"op":"ping"}"#)?.1 * 1e3))
            .collect::<Result<Vec<f64>, String>>()?
    } else {
        Vec::new()
    };
    server.finish();

    let ms = |xs: &[f64]| xs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    if args.trace {
        for (verb, lat) in VERBS.iter().zip(&observed.latency) {
            let lat = ms(lat);
            report.metric(format!("server.{verb}.p50_ms"), median(&lat), "ms");
            report.metric(
                format!("server.{verb}.p99_ms"),
                percentile(&lat, 99.0),
                "ms",
            );
        }
        report.metric("server.first_op.p50_ms", median(&first_op), "ms");
        report.metric("server.ops", ops, "count");
        report.metric("server.admitted", admitted, "count");
        report.metric("server.rejected", rejected, "count");
        report.metric("server.frames_rejected", frames_rejected, "count");
    } else {
        report.metric("setup_s", median(&setups), "s");
        report.metric("wall_s", median(&observed.session_wall), "s");
        let Some((config, batches, bits)) = &observed.replay else {
            return Err("no three-color session completed".into());
        };
        let (modeled_s, replay_bits) = replay(config, batches)?;
        report.check(*bits == Some(replay_bits), || {
            format!("hosted estimate bits {bits:?} != isolated replay {replay_bits}")
        });
        report.metric("modeled_s", modeled_s, "s");
        report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
        report.metric("sessions_per_s", observed.sessions as f64 / loop_s, "1/s");
        let query = ms(&observed.latency[2]);
        report.metric("query_p50_ms", median(&query), "ms");
        report.metric("query_p90_ms", percentile(&query, 90.0), "ms");
        report.metric("append_p50_ms", median(&ms(&observed.latency[1])), "ms");
    }
    Ok(())
}

/// Replays a tenant session in-process from the config the daemon
/// echoed, on the timed engine (tenants run on the functional engine,
/// which keeps no clock). Returns its modeled PIM seconds without the
/// host seconds folded in, and the estimate's bits.
fn replay(config: &Value, batches: &[Vec<Edge>]) -> Result<(f64, u64), String> {
    let mut config: TcConfig =
        serde_json::from_value(config).map_err(|e| format!("echoed config: {e:?}"))?;
    config.backend = ExecBackend::Timed;
    reset_ranks();
    let mut session = TcSession::<RankCluster<Spanned<PimSystem>>>::start_cluster(&config)
        .map_err(|e| e.to_string())?;
    for batch in batches {
        session.append(batch).map_err(|e| e.to_string())?;
    }
    let result = session.count().map_err(|e| e.to_string())?;
    let charged: f64 = session
        .backend_mut()
        .rank_backends()
        .first()
        .map_or(0.0, Spanned::host_charged);
    let t = result.times;
    Ok((
        t.sample_creation + t.triangle_count - charged,
        result.estimate.to_bits(),
    ))
}
