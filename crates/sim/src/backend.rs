//! The execution-backend seam: one host-side API, one engine, two clocks.
//!
//! The PrIM line of work (Gómez-Luna et al., IEEE Access 2022) separates
//! the *functional* behaviour of UPMEM hardware from its *timing
//! characterization*; this module exposes the same split for the
//! simulator. [`PimBackend`] abstracts everything an orchestrator does to
//! the PIM machine — allocation, rank-parallel `push`/`gather` transfers,
//! labeled SPMD kernel launches, phase accounting, and trace/report
//! access. The simulator's one engine, [`crate::system::Engine`],
//! implements it with the clock chosen at compile time:
//!
//! * [`TimedBackend`] (= [`PimSystem`] = `Engine<true>`) converts every
//!   operation into modeled seconds and joules against the
//!   PrIM-calibrated [`CostModel`]. Use it whenever modeled time matters.
//! * [`FunctionalBackend`] (= `Engine<false>`) runs the same code: the
//!   same kernel closures over the same MRAM banks, the same fault
//!   decisions, and the same cycle, instruction, DMA and byte counters
//!   and metric events. Only the seconds differ: phase times, transfer
//!   seconds and energy read zero, and tracing is a no-op. It is no
//!   cheaper to run, since simulating the kernels is the cost; use it
//!   where a run's clock must not matter.
//!
//! Both are bit-identical on *data*: MRAM contents, kernel results, and
//! gathered bytes never differ (the equivalence proptests in `pim-tc` pin
//! this).

use crate::config::PimConfig;
use crate::cost::{CostModel, SimSeconds};
use crate::dpu::Dpu;
use crate::energy::EnergyReport;
use crate::error::SimResult;
use crate::fault::FaultCounters;
use crate::kernel::{DpuContext, Pod};
use crate::phase::{Phase, PhaseTimes};
use crate::system::{Engine, HostWrite, PimSystem};
use crate::trace::Trace;
use pim_metrics::MetricsHub;
use std::sync::Arc;

/// Host-side driver interface for a set of allocated PIM cores.
///
/// Orchestrators (e.g. `pim-tc`'s `TcSession`) are written against this
/// trait so the same pipeline runs on either clock or on a multi-rank
/// cluster. Kernel launches are generic over the closure and its result
/// type, so the trait is used through generics (static dispatch), not
/// trait objects. Every method that touches faults or metrics has no
/// default body, so a new backend must say how it handles them.
pub trait PimBackend: Send {
    /// Allocates `nr_dpus` PIM cores under the given hardware shape and
    /// cost model, charging the setup cost (zero on the functional clock).
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self>
    where
        Self: Sized;

    /// Number of allocated PIM cores.
    fn nr_dpus(&self) -> usize;

    /// Hardware configuration in effect.
    fn config(&self) -> &PimConfig;

    /// Cost model in effect (the functional clock uses it for cycle
    /// counts but never converts them into seconds).
    fn cost(&self) -> &CostModel;

    /// Read-only access to a DPU (host-side inspection; tests and result
    /// gathering).
    fn dpu(&self, id: usize) -> SimResult<&Dpu>;

    /// Mutable access to a DPU bank, bypassing the modeled transfer path.
    /// This is the chaos-harness escape hatch: tests use it to flip bits
    /// in resident banks out of band (modeling radiation upsets the fault
    /// plan cannot schedule) and assert that scrubbing catches them. Not
    /// for orchestrators — data planes must go through `push`/`broadcast`
    /// so transfers stay modeled and faultable.
    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu>;

    /// Switches the phase that subsequent costs accrue to.
    fn set_phase(&mut self, phase: Phase);

    /// Phase currently accruing time.
    fn phase(&self) -> Phase;

    /// Modeled per-phase times so far (all-zero on the functional clock).
    fn phase_times(&self) -> PhaseTimes;

    /// Starts recording an event timeline. No-op on the functional clock,
    /// which produces no timing events.
    fn enable_tracing(&mut self);

    /// Attaches a live metrics hub: transfers, launches, host spans, and
    /// faults are emitted as structured events and folded into the hub's
    /// registry as they happen. Both clocks emit the *same* event
    /// sequence for the same workload — the functional clock reports all
    /// seconds as zero, but counts (bytes, cycles, instructions, faults)
    /// are identical.
    fn attach_metrics(&mut self, hub: Arc<MetricsHub>);

    /// The recorded timeline (always empty on the functional clock).
    fn trace(&self) -> &Trace;

    /// Folds measured host-side seconds into the current phase under a
    /// span label. The functional clock drops the measurement.
    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds);

    /// Unlabeled convenience over
    /// [`PimBackend::charge_host_seconds_labeled`].
    fn charge_host_seconds(&mut self, seconds: SimSeconds) {
        self.charge_host_seconds_labeled("host", seconds);
    }

    /// Executes a rank-parallel CPU→PIM transfer batch.
    fn push(&mut self, writes: Vec<HostWrite>) -> SimResult<()>;

    /// Broadcasts the same payload to every DPU at the same offset.
    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()>;

    /// Gathers `len` bytes at `offset` from every DPU (PIM→CPU transfer).
    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>>;

    /// Typed convenience over [`PimBackend::gather`]: one `T` per DPU
    /// read from the same offset.
    fn gather_one<T: Pod>(&mut self, offset: u64) -> SimResult<Vec<T>> {
        Ok(self
            .gather(offset, T::BYTES as u64)?
            .into_iter()
            .map(|bytes| T::read_le(&bytes))
            .collect())
    }

    /// Launches a labeled SPMD kernel on every allocated DPU, returning
    /// each DPU's result in id order and billing `launch_overhead + max
    /// per-DPU cycles` to the current phase.
    fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized;

    /// [`PimBackend::execute_labeled`] under the generic `"kernel"` label.
    fn execute<R, K>(&mut self, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized,
    {
        self.execute_labeled("kernel", kernel)
    }

    /// Like [`PimBackend::execute_labeled`], but tolerant of permanently
    /// dead DPUs (see [`crate::fault`]): their slots come back as `None`
    /// instead of failing the launch.
    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
        Self: Sized;

    /// Whether the fault plan has permanently killed `dpu`.
    fn is_dpu_lost(&self, dpu: usize) -> bool;

    /// Counters of faults injected so far.
    fn fault_counters(&self) -> FaultCounters;

    /// Sum of MRAM bytes in use across all DPUs.
    fn total_mram_used(&self) -> u64;

    /// Total CPU↔PIM bytes moved so far (tracked on both clocks — it is
    /// a data quantity, not a time).
    fn total_transfer_bytes(&self) -> u64;

    /// Total modeled seconds spent on CPU↔PIM transfers (zero on the
    /// functional clock).
    fn total_transfer_seconds(&self) -> SimSeconds;

    /// Energy totals for everything executed so far (all-zero on the
    /// functional clock).
    fn energy_report(&self) -> EnergyReport;

    /// Frees the PIM cores, returning the final phase times.
    fn release(self) -> PhaseTimes
    where
        Self: Sized;
}

/// The timed execution backend: the full cycle-accounting simulator.
///
/// `TimedBackend` *is* [`PimSystem`]; the alias names the role it plays
/// on the [`PimBackend`] seam.
pub type TimedBackend = PimSystem;

/// The functional execution backend: the same engine with the clock
/// compiled out — same banks, kernels, faults and counters, zero seconds,
/// no trace, no energy.
pub type FunctionalBackend = Engine<false>;

impl<const TIMED: bool> PimBackend for Engine<TIMED> {
    fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        Engine::allocate(nr_dpus, config, cost)
    }

    fn nr_dpus(&self) -> usize {
        Engine::nr_dpus(self)
    }

    fn config(&self) -> &PimConfig {
        Engine::config(self)
    }

    fn cost(&self) -> &CostModel {
        Engine::cost(self)
    }

    fn dpu(&self, id: usize) -> SimResult<&Dpu> {
        Engine::dpu(self, id)
    }

    fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        Engine::dpu_mut(self, id)
    }

    fn set_phase(&mut self, phase: Phase) {
        Engine::set_phase(self, phase);
    }

    fn phase(&self) -> Phase {
        Engine::phase(self)
    }

    fn phase_times(&self) -> PhaseTimes {
        Engine::phase_times(self)
    }

    fn enable_tracing(&mut self) {
        Engine::enable_tracing(self);
    }

    fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        Engine::attach_metrics(self, hub);
    }

    fn trace(&self) -> &Trace {
        Engine::trace(self)
    }

    fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        Engine::charge_host_seconds_labeled(self, label, seconds);
    }

    fn push(&mut self, writes: Vec<HostWrite>) -> SimResult<()> {
        Engine::push(self, writes)
    }

    fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        Engine::broadcast(self, offset, data)
    }

    fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        Engine::gather(self, offset, len)
    }

    fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        Engine::execute_labeled(self, label, kernel)
    }

    fn execute_labeled_masked<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        Engine::execute_labeled_masked(self, label, kernel)
    }

    fn is_dpu_lost(&self, dpu: usize) -> bool {
        Engine::is_dpu_lost(self, dpu)
    }

    fn fault_counters(&self) -> FaultCounters {
        Engine::fault_counters(self)
    }

    fn total_mram_used(&self) -> u64 {
        Engine::total_mram_used(self)
    }

    fn total_transfer_bytes(&self) -> u64 {
        Engine::total_transfer_bytes(self)
    }

    fn total_transfer_seconds(&self) -> SimSeconds {
        Engine::total_transfer_seconds(self)
    }

    fn energy_report(&self) -> EnergyReport {
        Engine::energy_report(self)
    }

    fn release(self) -> PhaseTimes {
        Engine::release(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::system::{decode_slice, encode_slice};

    /// The same small pipeline, written once against the trait.
    fn drive<B: PimBackend>(mut sys: B) -> (Vec<u32>, PhaseTimes, u64) {
        sys.set_phase(Phase::SampleCreation);
        let writes = (0..4)
            .map(|dpu| HostWrite {
                dpu,
                offset: 0,
                data: encode_slice(&[dpu as u32 + 1; 8]),
            })
            .collect();
        sys.push(writes).unwrap();
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("sum", |ctx| {
            let mut t = ctx.tasklet(0)?;
            let mut buf = [0u32; 8];
            t.mram_read(0, &mut buf)?;
            t.charge(8);
            let sum: u32 = buf.iter().sum();
            t.mram_write_one(64, sum)?;
            Ok(())
        })
        .unwrap();
        let out: Vec<u32> = sys.gather_one(64).unwrap();
        let bytes = sys.total_transfer_bytes();
        (out, sys.release(), bytes)
    }

    #[test]
    fn backends_agree_on_data_and_disagree_on_time() {
        let timed =
            <TimedBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let func =
            <FunctionalBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let (timed_out, timed_times, timed_bytes) = drive(timed);
        let (func_out, func_times, func_bytes) = drive(func);
        assert_eq!(timed_out, vec![8, 16, 24, 32]);
        assert_eq!(timed_out, func_out);
        assert_eq!(timed_bytes, func_bytes);
        assert!(timed_times.total() > 0.0);
        assert_eq!(func_times.total(), 0.0);
    }

    #[test]
    fn functional_backend_moves_data_without_charging_time() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
        sys.broadcast(0, &encode_slice(&[7u64, 9])).unwrap();
        for id in 0..2 {
            let bytes = sys.dpu(id).unwrap().host_read(0, 16).unwrap();
            assert_eq!(decode_slice::<u64>(&bytes), vec![7, 9]);
        }
        assert_eq!(sys.total_transfer_bytes(), 32);
        assert_eq!(sys.total_transfer_seconds(), 0.0);
        assert_eq!(sys.phase_times(), PhaseTimes::default());
        assert_eq!(sys.energy_report().total_j(), 0.0);
    }

    #[test]
    fn functional_backend_produces_no_trace_events() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
        sys.enable_tracing();
        sys.set_phase(Phase::SampleCreation);
        sys.broadcast(0, &[0u8; 64]).unwrap();
        sys.execute(|ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(10);
            Ok(())
        })
        .unwrap();
        assert!(sys.trace().events().is_empty());
        assert!(!sys.trace().is_enabled());
    }

    #[test]
    fn functional_backend_enforces_machine_limits() {
        let cfg = PimConfig::tiny();
        assert!(matches!(
            <FunctionalBackend as PimBackend>::allocate(65, cfg, CostModel::default()),
            Err(SimError::TooManyDpus { .. })
        ));
        let mut sys = FunctionalBackend::allocate_default(1).unwrap();
        assert!(matches!(
            sys.push(vec![HostWrite {
                dpu: 5,
                offset: 0,
                data: vec![0],
            }]),
            Err(SimError::NoSuchDpu { dpu: 5, .. })
        ));
        assert!(sys.dpu(3).is_err());
    }

    #[test]
    fn backends_emit_equivalent_metric_streams() {
        use crate::fault::FaultPlan;
        use pim_metrics::{summarize, MemorySink, StreamSummary};

        /// Rounds of push, broadcast, masked launch and gather that keep
        /// going through injected faults, logging every outcome (gathered
        /// bytes included).
        fn run<B: PimBackend>(config: PimConfig) -> (StreamSummary, Vec<String>, FaultCounters) {
            let mut sys = B::allocate(4, config, CostModel::default()).unwrap();
            let hub = Arc::new(MetricsHub::new());
            let sink = MemorySink::new();
            hub.add_sink(Box::new(sink.clone()));
            sys.attach_metrics(Arc::clone(&hub));
            let mut log = Vec::new();
            for round in 0..8u32 {
                sys.set_phase(Phase::SampleCreation);
                let writes = (0..4)
                    .filter(|&dpu| !sys.is_dpu_lost(dpu))
                    .map(|dpu| HostWrite {
                        dpu,
                        offset: 0,
                        data: encode_slice(&[dpu as u32 + round + 1; 8]),
                    })
                    .collect();
                log.push(format!("push {:?}", sys.push(writes)));
                let payload = encode_slice(&[round; 8]);
                log.push(format!("broadcast {:?}", sys.broadcast(32, &payload)));
                sys.set_phase(Phase::TriangleCount);
                let sums = sys.execute_labeled_masked("sum", |ctx| {
                    // Banks a failed push never reached are skipped.
                    if ctx.mram_used() < 64 {
                        return Ok(0);
                    }
                    let mut t = ctx.tasklet(0)?;
                    let mut buf = [0u32; 16];
                    t.mram_read(0, &mut buf)?;
                    t.charge(16);
                    // Corrupted words can be large, so the sum wraps.
                    let sum = buf.iter().fold(0u32, |a, &x| a.wrapping_add(x));
                    t.mram_write_one(64, sum)?;
                    Ok(sum)
                });
                log.push(format!("launch {sums:?}"));
                log.push(format!("gather {:?}", sys.gather(0, 68)));
            }
            let faults = sys.fault_counters();
            (summarize(&sink.events()), log, faults)
        }

        let faulted =
            FaultPlan::parse("seed=5,transfer=150000,corrupt=300000,launch=250000,kill=2@5")
                .unwrap();
        for fault in [None, Some(faulted)] {
            let config = PimConfig {
                fault,
                ..PimConfig::tiny()
            };
            let (timed, timed_log, timed_faults) = run::<TimedBackend>(config);
            let (func, func_log, func_faults) = run::<FunctionalBackend>(config);

            // Same data (corrupted bytes included) and the same faults.
            assert_eq!(timed_log, func_log);
            assert_eq!(timed_faults, func_faults);
            if fault.is_some() {
                assert!(timed_faults.transfer_faults > 0, "{timed_faults:?}");
                assert!(timed_faults.corruptions > 0, "{timed_faults:?}");
                assert!(timed_faults.launch_faults > 0, "{timed_faults:?}");
                assert_eq!(timed_faults.dpu_deaths, 1);
            }
            // Same event counts, bytes, cycles, instructions and fault
            // events on both engines.
            assert_eq!(timed.events, func.events);
            assert_eq!(timed.nr_dpus, func.nr_dpus);
            assert_eq!(timed.transfer_bytes(), func.transfer_bytes());
            assert_eq!(timed.instructions(), func.instructions());
            assert_eq!(timed.dma_bytes(), func.dma_bytes());
            let max_cycles = |s: &StreamSummary| {
                s.launches
                    .iter()
                    .map(|(label, agg)| {
                        (
                            label.clone(),
                            agg.launches,
                            agg.failed,
                            agg.max_cycles_total,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(max_cycles(&timed), max_cycles(&func));
            assert!(timed.launches["sum"].max_cycles_total > 0);
            assert_eq!(timed.faults, func.faults);
            // Only the clocks differ.
            assert!(timed.total_seconds() > 0.0);
            assert_eq!(func.total_seconds(), 0.0);
        }
    }

    #[test]
    fn timed_metric_seconds_close_against_phase_times() {
        use pim_metrics::{summarize, MemorySink};
        let mut sys =
            <TimedBackend as PimBackend>::allocate(4, PimConfig::tiny(), CostModel::default())
                .unwrap();
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        sys.attach_metrics(hub);
        sys.set_phase(Phase::SampleCreation);
        sys.broadcast(0, &encode_slice(&[1u32; 16])).unwrap();
        sys.charge_host_seconds_labeled("route_edges", 0.125);
        sys.set_phase(Phase::TriangleCount);
        sys.execute_labeled("count", |ctx| {
            let mut t = ctx.tasklet(0)?;
            t.charge(100);
            Ok(())
        })
        .unwrap();
        sys.gather(0, 64).unwrap();
        let times = sys.phase_times();
        let summary = summarize(&sink.events());
        assert!(
            (summary.total_seconds() - times.total()).abs() < 1e-12,
            "stream {} vs phases {}",
            summary.total_seconds(),
            times.total()
        );
    }

    #[test]
    fn functional_kernel_errors_propagate() {
        let mut sys = FunctionalBackend::allocate_default(2).unwrap();
        let err = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                t.mram_read_one::<u64>(1 << 30).map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::MramOverflow { .. } | SimError::BadAddress { .. }
        ));
    }
}
