//! The traced run measures the same program as the untraced one.
//!
//! `Spanned<PimSystem>` under a recording span tree must produce exactly
//! what bare `PimSystem` produces on every counting workload shape: the
//! same counts and per-DPU reports, the same per-label modeled cycles,
//! the same transfer bytes. Same-seed runs must repeat exactly, and the
//! benchmark seed must reach the generator.

use pim_graph::gen::chung_lu::ChungLuParams;
use pim_perfbench::count::{drive, drive_spanned, generate, Generator, Outcome, Shape};
use pim_perfbench::spanned::Spanned;
use pim_perfbench::spans;
use pim_sim::{PimSystem, Trace, TraceEvent};
use std::path::{Path, PathBuf};

/// Each counting workload's shape at test scale.
fn shapes() -> Vec<(&'static str, Generator, Shape)> {
    let base = Shape {
        colors: 6,
        uniform_p: None,
        ranks: 1,
        misra_gries: None,
        batches: 1,
        max_rel_error: 0.0,
    };
    vec![
        (
            "static-rmat",
            Generator::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            base,
        ),
        (
            "sampled-geo",
            Generator::Geometric {
                nodes: 3_000,
                radius: 0.03,
            },
            Shape {
                uniform_p: Some(0.1),
                ranks: 2,
                max_rel_error: 1.0,
                ..base
            },
        ),
        (
            "dynamic-hub",
            Generator::ChungLu(ChungLuParams {
                n: 3_000,
                gamma: 2.1,
                avg_degree: 12.0,
                max_degree_frac: 0.15,
            }),
            Shape {
                colors: 4,
                misra_gries: Some((64, 8)),
                batches: 4,
                ..base
            },
        ),
    ]
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything a run computes that must not depend on how it is observed.
fn assert_same(name: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.results.len(), b.results.len(), "{name}: updates");
    for (u, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(
            x.estimate.to_bits(),
            y.estimate.to_bits(),
            "{name} update {u}"
        );
        assert_eq!(x.raw_total, y.raw_total, "{name} update {u}");
        assert_eq!(x.edges_routed, y.edges_routed, "{name} update {u}");
        assert_eq!(x.edges_kept, y.edges_kept, "{name} update {u}");
        assert_eq!(x.max_dpu_load, y.max_dpu_load, "{name} update {u}");
        assert_eq!(x.dpu_reports, y.dpu_reports, "{name} update {u}");
        // Setup and counting are purely modeled; sample creation also
        // holds measured routing seconds and may differ.
        assert_eq!(x.times.setup, y.times.setup, "{name} update {u}");
        assert_eq!(
            x.times.triangle_count, y.times.triangle_count,
            "{name} update {u}"
        );
    }
    assert_eq!(a.report, b.report, "{name}: system report");
    assert_eq!(a.kernels, b.kernels, "{name}: per-launch modeled cycles");
    assert_eq!(a.mram_bytes, b.mram_bytes, "{name}: MRAM in use");
    assert!(!a.kernels.is_empty(), "{name}: traced launches recorded");
}

/// Measured host seconds folded into rank 0's modeled clock, from its
/// trace (every rank is charged the same).
fn host_work(traces: &[Trace]) -> f64 {
    traces[0]
        .events()
        .iter()
        .map(|e| match e {
            TraceEvent::HostWork { seconds, .. } => *seconds,
            _ => 0.0,
        })
        .sum()
}

#[test]
fn wrapped_run_is_identical_to_unwrapped_run() {
    for (name, generator, shape) in shapes() {
        let dir = scratch(&format!("equivalence-{name}"));
        let (path, _) = generate(generator, 7, &dir).unwrap();
        let (plain, session) = drive::<PimSystem>(&shape, &path, &dir, true).unwrap();
        let plain_host = host_work(&session.rank_traces());
        drop(session);
        spans::start_recording();
        let wrapped = drive::<Spanned<PimSystem>>(&shape, &path, &dir, true);
        let recorded = spans::stop_recording();
        let (wrapped, mut session) = wrapped.unwrap();
        assert_same(name, &plain, &wrapped);

        // The wrapper saw every transfer the backend accounted for.
        let wrapped_host = host_work(&session.rank_traces());
        let ranks = session.backend_mut().rank_backends();
        assert_eq!(ranks.len(), shape.ranks as usize, "{name}");
        assert!(
            ranks.iter().enumerate().all(|(r, b)| b.rank() == r),
            "{name}"
        );
        let moved: u64 = ranks
            .iter()
            .map(|b| b.push_bytes() + b.gather_bytes())
            .sum();
        assert_eq!(moved, wrapped.report.total_transfer_bytes, "{name}: bytes");
        assert!(ranks.iter().all(|b| b.host_charged() > 0.0), "{name}");

        // The wrapper's host-charge sum is what the session folded into
        // the clock, so `modeled_s` (phase sum minus that sum) is the same
        // modeled quantity with and without the wrapper.
        let charged = ranks[0].host_charged();
        assert!(
            (charged - wrapped_host).abs() <= 1e-12 * wrapped_host,
            "{name}"
        );
        let (m_plain, m_wrapped) = (plain.modeled_s - plain_host, wrapped.modeled_s - charged);
        assert!(
            (m_plain - m_wrapped).abs() <= 1e-9 * m_plain,
            "{name}: modeled {m_plain} vs {m_wrapped}"
        );

        // Every sim span hangs under a named core span, ranks included.
        assert!(
            recorded.iter().any(|s| s.name == "sim.kernel.count"),
            "{name}"
        );
        for s in recorded.iter().filter(|s| s.name.starts_with("sim.")) {
            assert!(s.parent.is_some(), "{name}: orphan span {}", s.name);
            assert!(s.rank.is_some_and(|r| r < shape.ranks as usize), "{name}");
        }
    }
}

#[test]
fn same_seed_repeats_and_seed_reaches_generator() {
    for (name, generator, shape) in shapes() {
        let dir = scratch(&format!("determinism-{name}"));
        let (path, seed_ok) = generate(generator, 11, &dir).unwrap();
        assert!(seed_ok, "{name}: neighbouring seeds gave the same graph");
        let a = drive_spanned(&shape, &path, &dir, true).unwrap();
        let b = drive_spanned(&shape, &path, &dir, true).unwrap();
        assert_same(name, &a, &b);
        let rel = (a.modeled_s - b.modeled_s).abs() / a.modeled_s;
        assert!(
            rel <= 1e-9,
            "{name}: modeled_s {} vs {}",
            a.modeled_s,
            b.modeled_s
        );
        assert!(a.modeled_s > 0.0 && a.host_charged_s > 0.0, "{name}");

        let other = scratch(&format!("determinism-{name}-other"));
        let (path, _) = generate(generator, 12, &other).unwrap();
        let c = drive_spanned(&shape, &path, &other, false).unwrap();
        assert_ne!(
            pim_perfbench::fingerprint(a.graph.edges()),
            pim_perfbench::fingerprint(c.graph.edges()),
            "{name}: seed 11 and 12 gave the same graph"
        );
    }
}
