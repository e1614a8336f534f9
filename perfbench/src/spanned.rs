//! `Spanned<B>`: a forwarding [`PimBackend`] that times every call.
//!
//! It wraps one rank's backend inside a [`pim_sim::RankCluster`], so a
//! session of type `TcSession<RankCluster<Spanned<PimSystem>>>` runs the
//! same program as `TcSession<RankCluster<PimSystem>>` while each
//! allocation, transfer and kernel launch becomes a `sim.*` span (see
//! [`crate::spans`]). Every trait method is forwarded, including those
//! with default bodies, so the wrapped run takes the inner backend's own
//! code paths; the `equivalence` test pins wrapped == unwrapped.
//!
//! Independently of span recording, the wrapper sums the bytes it moves
//! and the measured host seconds the session folds into the modeled clock
//! through `charge_host_seconds_labeled`, which is what lets the benchmark
//! report modeled PIM time without them.

use crate::spans::{span, span_lazy};
use pim_metrics::MetricsHub;
use pim_sim::cost::SimSeconds;
use pim_sim::kernel::Pod;
use pim_sim::{
    CostModel, Dpu, DpuContext, EnergyReport, FaultCounters, HostWrite, Phase, PhaseTimes,
    PimBackend, PimConfig, SimResult, Trace,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// Rank index handed to the next allocation. `RankCluster` allocates its
// ranks in order, so resetting this before each session start numbers
// the wrapped backends 0..R.
static NEXT_RANK: AtomicUsize = AtomicUsize::new(0);

/// Makes the next [`Spanned`] allocation rank 0. Call before starting a
/// cluster session.
pub fn reset_ranks() {
    NEXT_RANK.store(0, Ordering::Relaxed);
}

/// Span name of a kernel launch, built only while recording.
fn kernel_span(label: &str) -> impl FnOnce() -> String + '_ {
    move || format!("sim.kernel.{label}")
}

/// A forwarding backend that records a span around every call.
pub struct Spanned<B> {
    inner: B,
    rank: usize,
    host_charged: f64,
    push_bytes: u64,
    gather_bytes: u64,
}

impl<B> Spanned<B> {
    /// The rank this backend was allocated as.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Measured host seconds folded into this rank's modeled clock.
    pub fn host_charged(&self) -> f64 {
        self.host_charged
    }

    /// Payload bytes pushed (`push` and `broadcast`) to this rank.
    pub fn push_bytes(&self) -> u64 {
        self.push_bytes
    }

    /// Payload bytes gathered from this rank.
    pub fn gather_bytes(&self) -> u64 {
        self.gather_bytes
    }
}

impl<B: PimBackend> PimBackend for Spanned<B> {
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        let rank = NEXT_RANK.fetch_add(1, Ordering::Relaxed);
        let inner = span("sim.allocate", Some(rank), || {
            B::allocate(nr_dpus, config, cost)
        })?;
        Ok(Spanned {
            inner,
            rank,
            host_charged: 0.0,
            push_bytes: 0,
            gather_bytes: 0,
        })
    }

    fn nr_dpus(&self) -> usize {
        self.inner.nr_dpus()
    }

    fn config(&self) -> &PimConfig {
        self.inner.config()
    }

    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    fn dpu(&self, id: usize) -> SimResult<&Dpu> {
        self.inner.dpu(id)
    }

    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        self.inner.dpu_mut(id)
    }

    fn set_phase(&mut self, phase: Phase) {
        self.inner.set_phase(phase);
    }

    fn phase(&self) -> Phase {
        self.inner.phase()
    }

    fn phase_times(&self) -> PhaseTimes {
        self.inner.phase_times()
    }

    fn enable_tracing(&mut self) {
        self.inner.enable_tracing();
    }

    fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        self.inner.attach_metrics(hub);
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        self.host_charged += seconds;
        self.inner.charge_host_seconds_labeled(label, seconds);
    }

    fn charge_host_seconds(&mut self, seconds: SimSeconds) {
        self.host_charged += seconds;
        self.inner.charge_host_seconds(seconds);
    }

    fn push(&mut self, writes: Vec<HostWrite>) -> SimResult<()> {
        let bytes: u64 = writes.iter().map(|w| w.data.len() as u64).sum();
        let inner = &mut self.inner;
        let out = span("sim.push", Some(self.rank), || inner.push(writes));
        self.push_bytes += bytes;
        out
    }

    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        let inner = &mut self.inner;
        let out = span("sim.broadcast", Some(self.rank), || {
            inner.broadcast(offset, data)
        });
        self.push_bytes += data.len() as u64 * self.inner.nr_dpus() as u64;
        out
    }

    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        let inner = &mut self.inner;
        let out = span("sim.gather", Some(self.rank), || inner.gather(offset, len));
        if let Ok(rows) = &out {
            self.gather_bytes += rows.iter().map(|r| r.len() as u64).sum::<u64>();
        }
        out
    }

    fn gather_one<T: Pod>(&mut self, offset: u64) -> SimResult<Vec<T>> {
        let inner = &mut self.inner;
        let out = span("sim.gather", Some(self.rank), || {
            inner.gather_one::<T>(offset)
        });
        if let Ok(rows) = &out {
            self.gather_bytes += (rows.len() * T::BYTES) as u64;
        }
        out
    }

    fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        let inner = &mut self.inner;
        span_lazy(kernel_span(label), Some(self.rank), || {
            inner.execute_labeled(label, kernel)
        })
    }

    fn execute<R, K>(&mut self, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        let inner = &mut self.inner;
        span_lazy(kernel_span("kernel"), Some(self.rank), || {
            inner.execute(kernel)
        })
    }

    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        let inner = &mut self.inner;
        span_lazy(kernel_span(label), Some(self.rank), || {
            inner.execute_labeled_masked(label, kernel)
        })
    }

    fn is_dpu_lost(&self, dpu: usize) -> bool {
        self.inner.is_dpu_lost(dpu)
    }

    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }

    fn total_mram_used(&self) -> u64 {
        self.inner.total_mram_used()
    }

    fn total_transfer_bytes(&self) -> u64 {
        self.inner.total_transfer_bytes()
    }

    fn total_transfer_seconds(&self) -> SimSeconds {
        self.inner.total_transfer_seconds()
    }

    fn energy_report(&self) -> EnergyReport {
        self.inner.energy_report()
    }

    fn release(self) -> PhaseTimes {
        let Spanned { inner, rank, .. } = self;
        span("sim.release", Some(rank), || inner.release())
    }
}
