//! The three counting workloads: `static-rmat`, `sampled-geo` and
//! `dynamic-hub`.
//!
//! Each iteration runs the steps of the `pimtc count` / `pimtc dynamic`
//! command on a generated graph file: load, preprocess, size the
//! reservoirs from the per-core loads, start the cluster session, then
//! append, count (and, for dynamic, checkpoint) every update. Set-up is
//! timed up to the session start; `wall_s` from the first append to the
//! final result.

use crate::spanned::{reset_ranks, Spanned};
use crate::spans::{self, span, SpanTotals};
use crate::{median, percentile, Report, RunArgs, Workload};
use pim_graph::gen::chung_lu::ChungLuParams;
use pim_graph::{gen, io, prep, CooGraph, Edge};
use pim_sim::{PimBackend, PimSystem, RankCluster, SystemReport, TraceEvent};
use pim_tc::{ExecBackend, TcConfig, TcResult, TcSession};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The default `--seed` of `pimtc count`/`dynamic`: the sampling seed is a
/// program setting, not a workload input, so it stays fixed while the
/// benchmark seed varies the graph.
const CLI_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Kernel labels reported per layer, in pipeline order.
const KERNEL_LABELS: [&str; 5] = ["receive", "remap", "sort", "index", "count"];

/// Seconds of repeated set-ups before the first measured iteration and
/// after each. Host speed here drifts over seconds, so spreading the
/// set-ups over the run keeps their median from reading a single phase.
const SETUP_WINDOW_S: f64 = 0.5;
/// Fewest set-ups per window, whatever their length.
const MIN_WINDOW_SETUPS: usize = 1;
/// Fewest measured iterations per run, after the warm-up one.
const MIN_ITERATIONS: u32 = 3;

/// How a counting workload configures the session.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub colors: u32,
    pub uniform_p: Option<f64>,
    pub ranks: u32,
    pub misra_gries: Option<(usize, usize)>,
    /// Updates the graph is split into (1 = one static append). A run of
    /// several updates takes a durable checkpoint after each, as
    /// `pimtc dynamic --checkpoint` does.
    pub batches: usize,
    /// Largest accepted `|estimate − exact| / exact`; 0 = must be exact.
    pub max_rel_error: f64,
}

/// Graph generator of a counting workload.
#[derive(Clone, Copy, Debug)]
pub enum Generator {
    Rmat { scale: u32, edge_factor: u32 },
    Geometric { nodes: u32, radius: f64 },
    ChungLu(ChungLuParams),
}

impl Generator {
    /// The raw (un-preprocessed) graph for `seed`.
    pub fn build(self, seed: u64) -> CooGraph {
        match self {
            Generator::Rmat { scale, edge_factor } => {
                gen::rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed)
            }
            Generator::Geometric { nodes, radius } => gen::random_geometric(nodes, radius, seed),
            Generator::ChungLu(p) => gen::chung_lu(p, seed),
        }
    }
}

/// A counting workload at full (benchmark) scale.
fn workload(w: Workload) -> (Generator, Shape) {
    let base = Shape {
        colors: 23,
        uniform_p: None,
        ranks: 1,
        misra_gries: None,
        batches: 1,
        max_rel_error: 0.0,
    };
    match w {
        Workload::StaticRmat => (
            Generator::Rmat {
                scale: 15,
                edge_factor: 16,
            },
            base,
        ),
        Workload::SampledGeo => (
            Generator::Geometric {
                nodes: 125_000,
                radius: 0.00877,
            },
            Shape {
                uniform_p: Some(0.1),
                ranks: 2,
                max_rel_error: 0.05,
                ..base
            },
        ),
        // DatasetId::HyperlinkSkewed at the paper profile, seeded by the
        // benchmark seed; the Fig. 7 protocol.
        Workload::DynamicHub => (
            Generator::ChungLu(ChungLuParams {
                n: 40_000,
                gamma: 2.1,
                avg_degree: 12.0,
                max_degree_frac: 0.15,
            }),
            Shape {
                colors: 11,
                misra_gries: Some((1024, 64)),
                batches: 10,
                ..base
            },
        ),
        Workload::ServeTenants => unreachable!("serve-tenants is not a counting workload"),
    }
}

/// What one pipeline iteration measured and produced.
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub append_s: Vec<f64>,
    pub count_s: Vec<f64>,
    pub checkpoint_bytes: u64,
    /// One result per update, in order.
    pub results: Vec<TcResult>,
    pub report: SystemReport,
    /// Modeled `sample_creation + triangle_count` seconds minus the host
    /// seconds the session folded in: the modeled DPU + transfer time.
    pub modeled_s: f64,
    pub host_charged_s: f64,
    pub push_bytes: u64,
    pub gather_bytes: u64,
    pub mram_bytes: u64,
    /// Kernel launches from the per-rank sim traces (traced runs only).
    pub kernels: Vec<(String, u64, u64)>,
    /// The preprocessed graph.
    pub graph: CooGraph,
}

/// Loads, preprocesses and sizes the graph, then starts the session: the
/// program-side set-up of `pimtc count FILE --colors C ...`.
fn setup<B: PimBackend>(
    shape: &Shape,
    path: &Path,
) -> Result<(CooGraph, TcSession<RankCluster<B>>), String> {
    let mut graph = span("graph.load", None, || io::load_binary(path))
        .map_err(|e| format!("loading {}: {e}", path.display()))?;
    span("graph.preprocess", None, || prep::preprocess(&mut graph, 0));
    // Capacity from the unsampled per-core loads (+64), as the CLI sizes it.
    let max_load = span("core.size", None, || {
        pim_tc::host::dpu_loads(graph.edges(), shape.colors, CLI_SEED)
            .into_iter()
            .max()
            .unwrap_or(0)
    });
    let mut builder = TcConfig::builder()
        .colors(shape.colors)
        .seed(CLI_SEED)
        .sample_capacity((max_load + 64).max(3))
        .ranks(shape.ranks)
        .backend(ExecBackend::Timed)
        .fault_plan(None);
    if let Some(p) = shape.uniform_p {
        builder = builder.uniform_p(p);
    }
    if let Some((k, t)) = shape.misra_gries {
        builder = builder.misra_gries(k, t);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    reset_ranks();
    let session = span("core.start", None, || {
        TcSession::<RankCluster<B>>::start_cluster(&config)
    })
    .map_err(|e| e.to_string())?;
    Ok((graph, session))
}

/// Runs one full iteration on engine `B`; `sim_trace` turns on the
/// simulator's own timeline so per-label modeled cycles can be read.
pub fn drive<B: PimBackend>(
    shape: &Shape,
    path: &Path,
    ckpt_dir: &Path,
    sim_trace: bool,
) -> Result<(Outcome, TcSession<RankCluster<B>>), String> {
    let t0 = Instant::now();
    let (graph, mut session) = setup::<B>(shape, path)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let batches = (shape.batches > 1).then(|| graph.split_batches(shape.batches));
    if sim_trace {
        session.enable_tracing();
    }
    let updates: Vec<&[Edge]> = match &batches {
        Some(b) => b.iter().map(Vec::as_slice).collect(),
        None => vec![graph.edges()],
    };
    let mut append_s = Vec::with_capacity(updates.len());
    let mut count_s = Vec::with_capacity(updates.len());
    let mut results = Vec::with_capacity(updates.len());
    let mut checkpoint_bytes = 0;
    let t1 = Instant::now();
    for (u, batch) in updates.iter().enumerate() {
        let t = Instant::now();
        span("core.append", None, || session.append(batch)).map_err(|e| e.to_string())?;
        append_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let result = span("core.count", None, || session.count()).map_err(|e| e.to_string())?;
        count_s.push(t.elapsed().as_secs_f64());
        results.push(result);
        if shape.batches > 1 {
            let path = span("core.checkpoint", None, || {
                session.checkpoint(u as u64 + 1)?.save(ckpt_dir)
            })
            .map_err(|e| e.to_string())?;
            checkpoint_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
    }
    let wall_s = t1.elapsed().as_secs_f64();
    drop(batches);

    let report = session.system_report();
    let times = results.last().map(|r| r.times).unwrap_or_default();
    let kernels = if sim_trace {
        kernel_launches(&session.rank_traces())
    } else {
        Vec::new()
    };
    let outcome = Outcome {
        setup_s,
        wall_s,
        append_s,
        count_s,
        checkpoint_bytes,
        results,
        report,
        modeled_s: times.sample_creation + times.triangle_count,
        host_charged_s: 0.0,
        push_bytes: 0,
        gather_bytes: 0,
        mram_bytes: session.backend_mut().total_mram_used(),
        kernels,
        graph,
    };
    Ok((outcome, session))
}

/// [`drive`] on the spanned timed engine, with the wrapper's counters
/// folded into the outcome.
pub fn drive_spanned(
    shape: &Shape,
    path: &Path,
    ckpt_dir: &Path,
    sim_trace: bool,
) -> Result<Outcome, String> {
    let (mut out, mut session) = drive::<Spanned<PimSystem>>(shape, path, ckpt_dir, sim_trace)?;
    let ranks = session.backend_mut().rank_backends();
    // Every rank is charged the same host seconds (host work blocks every
    // rank), and the cluster clock is the per-rank maximum, so removing
    // one rank's charge leaves the modeled part.
    out.host_charged_s = ranks.first().map(Spanned::host_charged).unwrap_or(0.0);
    out.modeled_s -= out.host_charged_s;
    out.push_bytes = ranks.iter().map(Spanned::push_bytes).sum();
    out.gather_bytes = ranks.iter().map(Spanned::gather_bytes).sum();
    Ok(out)
}

/// `(label, critical-path cycles, cycles summed over cores)` per kernel
/// launch, over every rank's trace.
fn kernel_launches(traces: &[pim_sim::Trace]) -> Vec<(String, u64, u64)> {
    traces
        .iter()
        .flat_map(|t| t.events())
        .filter_map(|e| match e {
            TraceEvent::Kernel {
                label,
                max_cycles,
                per_dpu_cycles,
                ..
            } => Some((label.clone(), *max_cycles, per_dpu_cycles.iter().sum())),
            _ => None,
        })
        .collect()
}

/// Generates the workload graph for `seed` and writes it as `.bin`.
/// Returns the path and whether the seed check passed: the graph for a
/// neighbouring seed must differ, or the seed is not reaching the
/// generator.
pub fn generate(
    generator: Generator,
    seed: u64,
    dir: &Path,
) -> Result<(std::path::PathBuf, bool), String> {
    let graph = generator.build(seed);
    let other = generator.build(seed ^ 1);
    let seed_ok = crate::fingerprint(graph.edges()) != crate::fingerprint(other.edges());
    drop(other);
    let path = dir.join("graph.bin");
    io::save_binary(&graph, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((path, seed_ok))
}

/// Exact reference count after each update (the CPU baseline on the
/// growing prefix), with the summed baseline seconds.
fn reference_counts(graph: &CooGraph, batches: usize) -> (Vec<u64>, f64) {
    if batches <= 1 {
        let run = pim_baselines::cpu_count(graph);
        return (vec![run.triangles], run.total_secs());
    }
    let mut prefix = CooGraph::new();
    let mut counts = Vec::with_capacity(batches);
    let mut secs = 0.0;
    for batch in graph.split_batches(batches) {
        prefix.extend_edges(&batch);
        let run = pim_baselines::cpu_count(&prefix);
        secs += run.total_secs();
        counts.push(run.triangles);
    }
    (counts, secs)
}

/// Checks one iteration's results against the reference counts.
fn check_outcome(report: &mut Report, shape: &Shape, out: &Outcome, exact: &[u64]) {
    report.check(out.results.len() == exact.len(), || {
        format!("{} results for {} updates", out.results.len(), exact.len())
    });
    for (u, (r, &want)) in out.results.iter().zip(exact).enumerate() {
        if shape.max_rel_error == 0.0 {
            report.check(r.exact && r.rounded() == want, || {
                format!(
                    "update {u}: PIM count {} (exact: {}) != CPU count {want}",
                    r.rounded(),
                    r.exact
                )
            });
        } else {
            let err = r.relative_error(want);
            report.check(err <= shape.max_rel_error, || {
                format!(
                    "update {u}: relative error {err:.4} > {}",
                    shape.max_rel_error
                )
            });
        }
    }
    let faults = out.report.fault_counters.total();
    report.check(faults == 0, || format!("{faults} faults counted"));
}

/// Runs a counting workload and fills `report`.
pub fn run(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let (generator, ref shape) = workload(args.workload);
    let (path, seed_ok) = generate(generator, args.seed, &args.work_dir)?;
    report.check(seed_ok, || {
        "a different seed produced the same graph".into()
    });
    let ckpt = args.work_dir.join("checkpoint");
    std::fs::create_dir_all(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    if args.trace {
        run_traced(args, shape, &path, &ckpt, report)
    } else {
        run_untraced(args, shape, &path, &ckpt, report)
    }
}

fn run_untraced(
    args: &RunArgs,
    shape: &Shape,
    path: &Path,
    ckpt: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // A warm-up iteration, checked but not timed: the first pass through
    // a fresh process pays page faults and cold caches that later ones do
    // not. It is also the same-seed reference for every measured one.
    let warm = drive_spanned(shape, path, ckpt, false)?;
    let (exact, _) = reference_counts(&warm.graph, shape.batches);
    check_outcome(report, shape, &warm, &exact);
    let routed = |o: &Outcome| o.results.last().map_or(0, |r| r.edges_routed);
    let (modeled_s, warm_routed) = (warm.modeled_s, routed(&warm));
    drop(warm);

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    // Latencies per update index, one sample per measured iteration.
    let mut appends = vec![Vec::new(); shape.batches.max(1)];
    let mut counts = appends.clone();
    let mut iterations = 0u32;
    // Seconds inside the measured iterations: set-up windows are excluded.
    let mut busy_s = 0.0;
    while iterations < MIN_ITERATIONS || busy_s < args.seconds {
        setup_window(shape, path, &mut setups)?;
        let t = Instant::now();
        let out = drive_spanned(shape, path, ckpt, false)?;
        busy_s += t.elapsed().as_secs_f64();
        iterations += 1;
        check_outcome(report, shape, &out, &exact);
        report.check(
            same(modeled_s, out.modeled_s) && warm_routed == routed(&out),
            || {
                format!(
                    "same-seed iterations disagree: modeled {modeled_s} vs {}, routed {warm_routed} vs {}",
                    out.modeled_s,
                    routed(&out)
                )
            },
        );
        eprintln!("perfbench: iteration {iterations}: wall {:.3} s", out.wall_s);
        setups.push(out.setup_s);
        walls.push(out.wall_s);
        for (u, (a, c)) in out.append_s.iter().zip(&out.count_s).enumerate() {
            appends[u].push(*a);
            counts[u].push(*c);
        }
    }
    setup_window(shape, path, &mut setups)?;
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", median(&walls), "s");
    report.metric("modeled_s", modeled_s, "s");
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    report.metric("sessions_per_s", f64::from(iterations) / busy_s, "1/s");
    let ms = update_medians_ms(&counts);
    report.metric("query_p50_ms", median(&ms), "ms");
    report.metric("query_p90_ms", percentile(&ms, 90.0), "ms");
    report.metric("append_p50_ms", median(&update_medians_ms(&appends)), "ms");
    Ok(())
}

/// The median latency of each update over the iterations, in ms.
/// Updates differ in cost by design (the resident set grows), so a
/// percentile over the raw samples would fall between two updates'
/// clusters and swing with their order; over the per-update medians it
/// reads one update (or interpolates two) with each iteration's noise
/// damped.
fn update_medians_ms(by_update: &[Vec<f64>]) -> Vec<f64> {
    by_update.iter().map(|s| median(s) * 1e3).collect()
}

/// Repeats the set-up for [`SETUP_WINDOW_S`] seconds (and at least
/// [`MIN_WINDOW_SETUPS`] times), adding each set-up's seconds to `setups`.
fn setup_window(shape: &Shape, path: &Path, setups: &mut Vec<f64>) -> Result<(), String> {
    let window = Instant::now();
    let mut n = 0;
    while n < MIN_WINDOW_SETUPS || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        let t = Instant::now();
        let (graph, session) = setup::<Spanned<PimSystem>>(shape, path)?;
        setups.push(t.elapsed().as_secs_f64());
        drop((graph, session));
        n += 1;
    }
    Ok(())
}

/// Relative agreement to 1e-9.
fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn run_traced(
    args: &RunArgs,
    shape: &Shape,
    path: &Path,
    ckpt: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // One untraced iteration, for the overhead figure and as the
    // same-seed determinism reference.
    let plain = drive_spanned(shape, path, ckpt, false)?;
    let (exact, cpu_s) = reference_counts(&plain.graph, shape.batches);
    check_outcome(report, shape, &plain, &exact);

    spans::start_recording();
    let traced = drive_spanned(shape, path, ckpt, true);
    let recorded = spans::stop_recording();
    let traced = traced?;
    check_outcome(report, shape, &traced, &exact);
    if let Some(out) = &args.spans_out {
        spans::write_jsonl(&recorded, out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let routed = |o: &Outcome| o.results.last().map(|r| r.edges_routed).unwrap_or(0);
    report.check(
        same(plain.modeled_s, traced.modeled_s) && routed(&plain) == routed(&traced),
        || {
            format!(
                "traced run diverged: modeled {} vs {}, routed {} vs {}",
                plain.modeled_s,
                traced.modeled_s,
                routed(&plain),
                routed(&traced)
            )
        },
    );

    let t = SpanTotals::new(&recorded);
    let last = traced.results.last();
    report.metric("graph.load_s", t.total("graph.load"), "s");
    report.metric("graph.preprocess_s", t.total("graph.preprocess"), "s");
    report.metric("core.size_s", t.total("core.size"), "s");
    report.metric("core.start_s", t.total("core.start"), "s");
    report.metric("sim.allocate_s", t.total("sim.allocate"), "s");
    report.metric("core.append_s", t.total("core.append"), "s");
    report.metric("core.route_self_s", t.self_time("core.append"), "s");
    report.metric("core.count_s", t.total("core.count"), "s");
    report.metric("core.count_self_s", t.self_time("core.count"), "s");
    report.metric("core.checkpoint_s", t.total("core.checkpoint"), "s");
    report.metric("core.checkpoint_bytes", traced.checkpoint_bytes as f64, "B");
    let mut kernel_host = 0.0;
    let mut cycles_by_label: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (label, max, sum) in &traced.kernels {
        let e = cycles_by_label.entry(label.as_str()).or_default();
        e.0 += max;
        e.1 += sum;
    }
    for label in KERNEL_LABELS {
        let name = format!("sim.kernel.{label}");
        let host = t.total(&name);
        kernel_host += host;
        report.metric(format!("{name}.host_s"), host, "s");
        report.metric(format!("{name}.launches"), t.calls(&name) as f64, "count");
        let (max, _) = cycles_by_label.get(label).copied().unwrap_or_default();
        report.metric(format!("{name}.modeled_cycles"), max as f64, "cycles");
    }
    let core_cycles: u64 = cycles_by_label
        .iter()
        .filter(|(l, _)| KERNEL_LABELS.contains(l))
        .map(|(_, c)| c.1)
        .sum();
    report.metric(
        "sim.instructions",
        traced.report.total_instructions as f64,
        "count",
    );
    report.metric("sim.dma_bytes", traced.report.total_dma_bytes as f64, "B");
    report.metric(
        "sim.ns_per_cycle",
        if core_cycles > 0 {
            kernel_host * 1e9 / core_cycles as f64
        } else {
            0.0
        },
        "ns/cycle",
    );
    report.metric("sim.push_s", t.total("sim.push"), "s");
    report.metric("sim.push_bytes", traced.push_bytes as f64, "B");
    report.metric("sim.gather_s", t.total("sim.gather"), "s");
    report.metric("sim.gather_bytes", traced.gather_bytes as f64, "B");
    report.metric("sim.broadcast_s", t.total("sim.broadcast"), "s");
    report.metric("sim.host_charged_s", traced.host_charged_s, "s");
    let resident: u64 = last
        .map(|r| r.dpu_reports.iter().map(|d| d.resident).sum())
        .unwrap_or(0);
    report.metric("sim.mram_bytes", traced.mram_bytes as f64, "B");
    report.metric(
        "sim.mram_bytes_per_resident_edge",
        traced.mram_bytes as f64 / resident.max(1) as f64,
        "B/edge",
    );
    report.metric(
        "core.edges_routed",
        last.map_or(0, |r| r.edges_routed) as f64,
        "count",
    );
    report.metric(
        "core.kept_ratio",
        last.map_or(0.0, |r| r.edges_kept as f64 / r.edges_offered.max(1) as f64),
        "ratio",
    );
    report.metric(
        "core.max_dpu_load",
        last.map_or(0, |r| r.max_dpu_load) as f64,
        "count",
    );
    report.metric(
        "core.rel_error",
        last.zip(exact.last())
            .map_or(0.0, |(r, &want)| r.relative_error(want)),
        "ratio",
    );
    report.metric("baselines.cpu_count_s", cpu_s, "s");
    // Share of wall_s (first append to final result) spent in a layer
    // below the session logic: the simulator calls made by append, count
    // and checkpoint, and the checkpoint's own serialization and write.
    // The rest is core self time (routing, header decode, correction).
    let below_core: f64 = recorded
        .iter()
        .filter(|s| {
            s.name.starts_with("sim.")
                && s.parent.is_some_and(|p| {
                    matches!(
                        recorded[p].name.as_str(),
                        "core.append" | "core.count" | "core.checkpoint"
                    )
                })
        })
        .map(spans::Span::duration)
        .sum();
    let attributed = below_core + t.self_time("core.checkpoint");
    report.metric(
        "bench.attributed_pct",
        100.0 * attributed / traced.wall_s,
        "%",
    );
    report.metric("bench.spans", recorded.len() as f64, "count");
    report.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced.wall_s / plain.wall_s - 1.0),
        "%",
    );
    Ok(())
}
