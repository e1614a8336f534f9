//! The host-side view of the PIM machine: allocation, transfers, kernel
//! launches, and phase timing.
//!
//! One engine, [`Engine`], drives the machine. Its `TIMED` parameter picks
//! the clock at compile time: [`PimSystem`] (`Engine<true>`) bills every
//! operation against the [`CostModel`], and [`crate::FunctionalBackend`]
//! (`Engine<false>`) runs the same code with every modeled second at zero,
//! no trace and no energy. Data, fault decisions, activity counters and
//! the metric stream are the same on both.

use crate::config::PimConfig;
use crate::cost::{CostModel, SimSeconds};
use crate::dpu::Dpu;
use crate::energy::{EnergyModel, EnergyReport};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultCounters, FaultDecision, FaultState, OpKind};
use crate::kernel::{DpuContext, Pod};
use crate::phase::{Phase, PhaseTimes};
use crate::trace::{Trace, TraceEvent};
use pim_metrics::{LaunchObs, MetricsHub};
use rayon::prelude::*;
use std::sync::Arc;

/// XOR mask applied to the victim byte of a corrupted payload.
const CORRUPT_MASK: u8 = 0xA5;

/// One host→DPU write request in a parallel transfer batch.
#[derive(Clone, Debug)]
pub struct HostWrite {
    /// Target DPU id.
    pub dpu: usize,
    /// Destination MRAM offset (bytes).
    pub offset: u64,
    /// Payload.
    pub data: Vec<u8>,
}

/// A set of allocated PIM cores plus the machinery to drive them:
/// rank-parallel transfers, SPMD kernel launches, and per-phase modeled
/// time (§4.1: Setup / Sample Creation / Triangle Count).
///
/// `TIMED` selects the clock; use the [`PimSystem`] and
/// [`crate::FunctionalBackend`] aliases rather than naming it.
pub struct Engine<const TIMED: bool> {
    config: PimConfig,
    cost: CostModel,
    energy: EnergyModel,
    dpus: Vec<Dpu>,
    times: PhaseTimes,
    phase: Phase,
    transfer_bytes: u64,
    transfer_seconds: SimSeconds,
    trace: Trace,
    fault: FaultState,
    metrics: Option<Arc<MetricsHub>>,
}

/// The timed engine: the full cycle-, DMA-, transfer- and energy-accounting
/// simulator.
pub type PimSystem = Engine<true>;

impl<const TIMED: bool> Engine<TIMED> {
    /// Allocates `nr_dpus` PIM cores, charging the setup cost (core
    /// allocation + kernel binary load) to the Setup phase.
    pub fn allocate(nr_dpus: usize, config: PimConfig, cost: CostModel) -> SimResult<Self> {
        if nr_dpus > config.total_dpus {
            return Err(SimError::TooManyDpus {
                requested: nr_dpus,
                available: config.total_dpus,
            });
        }
        let dpus = (0..nr_dpus)
            .map(|id| Dpu::new(id, config.mram_capacity, config.nr_tasklets))
            .collect();
        let mut sys = Engine {
            config,
            cost,
            energy: EnergyModel::default(),
            dpus,
            times: PhaseTimes::default(),
            phase: Phase::Setup,
            transfer_bytes: 0,
            transfer_seconds: 0.0,
            trace: Trace::default(),
            fault: FaultState::new(config.fault, nr_dpus),
            metrics: None,
        };
        let setup = sys.clock(|cost| cost.setup_seconds(nr_dpus));
        sys.times.add(Phase::Setup, setup);
        Ok(sys)
    }

    /// Allocates with default config and cost model.
    pub fn allocate_default(nr_dpus: usize) -> SimResult<Self> {
        Self::allocate(nr_dpus, PimConfig::default(), CostModel::default())
    }

    /// The modeled seconds of one operation: `seconds` applied to the cost
    /// model on the timed engine, zero on the functional one (where the
    /// cost-model call compiles out).
    #[inline]
    fn clock(&self, seconds: impl FnOnce(&CostModel) -> SimSeconds) -> SimSeconds {
        if TIMED {
            seconds(&self.cost)
        } else {
            0.0
        }
    }

    /// Number of allocated PIM cores.
    #[inline]
    pub fn nr_dpus(&self) -> usize {
        self.dpus.len()
    }

    /// Hardware configuration in effect.
    #[inline]
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Cost model in effect.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Read-only access to a DPU (host-side inspection; tests and result
    /// gathering).
    pub fn dpu(&self, id: usize) -> SimResult<&Dpu> {
        self.dpus.get(id).ok_or(SimError::NoSuchDpu {
            dpu: id,
            allocated: self.dpus.len(),
        })
    }

    /// Mutable access to a DPU bank, bypassing the modeled transfer path
    /// (see [`crate::PimBackend::dpu_mut`]): the chaos-harness hook for
    /// planting out-of-band bank corruption. Charges no time and injects
    /// no faults.
    pub fn dpu_mut(&mut self, id: usize) -> SimResult<&mut Dpu> {
        let allocated = self.dpus.len();
        self.dpus
            .get_mut(id)
            .ok_or(SimError::NoSuchDpu { dpu: id, allocated })
    }

    /// Switches the phase that subsequent costs accrue to.
    pub fn set_phase(&mut self, phase: Phase) {
        if self.phase != phase {
            self.trace.record(TraceEvent::PhaseChange { to: phase });
            if let Some(hub) = &self.metrics {
                hub.phase_change(phase.metric_name());
            }
        }
        self.phase = phase;
    }

    /// Attaches a live metrics hub: every transfer, launch, host span, and
    /// fault from now on is emitted as a structured event and folded into
    /// the hub's registry. The time accrued so far (allocation) is emitted
    /// as one `alloc` event, so the stream's seconds close against
    /// [`Engine::phase_times`]. Attach immediately after allocation for
    /// a complete stream.
    pub fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        hub.alloc(self.dpus.len() as u64, self.times.total());
        self.metrics = Some(hub);
    }

    /// Starts recording an event timeline (see [`crate::trace`]); a no-op
    /// on the functional engine, which keeps no timeline.
    ///
    /// The time accrued before the first call (allocation) is backfilled
    /// as one `Allocate` event, so the timeline's total always matches
    /// [`Engine::phase_times`].
    pub fn enable_tracing(&mut self) {
        if !TIMED || self.trace.is_enabled() {
            return;
        }
        self.trace.enable();
        self.trace.record(TraceEvent::Allocate {
            nr_dpus: self.dpus.len(),
            seconds: self.times.total(),
        });
    }

    /// The recorded timeline (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Phase currently accruing time.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Modeled per-phase times so far.
    pub fn phase_times(&self) -> PhaseTimes {
        self.times
    }

    /// Folds measured host-side seconds (e.g. batch-creation wall time)
    /// into the current phase. The paper's timings include host work; the
    /// simulator cannot model arbitrary host Rust code, so the orchestrator
    /// measures it and accounts it here.
    pub fn charge_host_seconds(&mut self, seconds: SimSeconds) {
        self.charge_host_seconds_labeled("host", seconds);
    }

    /// Like [`Engine::charge_host_seconds`], but names the span so
    /// traces show *which* host work the time went to. The functional
    /// engine drops the measurement but still emits the (zero-second)
    /// event, so span and retry sequences match the timed engine.
    pub fn charge_host_seconds_labeled(&mut self, label: &str, seconds: SimSeconds) {
        let seconds = self.clock(|_| seconds);
        self.times.add(self.phase, seconds);
        self.trace.record(TraceEvent::HostWork {
            label: label.to_string(),
            seconds,
            phase: self.phase,
        });
        if let Some(hub) = &self.metrics {
            hub.host(label, self.phase.metric_name(), seconds);
        }
    }

    /// Records a fault event on the trace and the metrics stream.
    fn record_fault(&mut self, kind: &'static str, op: u64, dpu: Option<usize>) {
        self.trace.record(TraceEvent::Fault {
            kind: kind.to_string(),
            op,
            dpu,
            phase: self.phase,
        });
        if let Some(hub) = &self.metrics {
            hub.fault(kind, self.phase.metric_name(), op, dpu.map(|d| d as u64));
        }
    }

    /// Draws the fault decision for one transfer (`op` names it). A kill
    /// ends the transfer at once; a bus failure ends it after billing the
    /// wasted bus time. Any other decision is the caller's to apply.
    fn transfer_decision(
        &mut self,
        op: &'static str,
        writes: usize,
        per_dpu_bytes: &[u64],
    ) -> SimResult<FaultDecision> {
        match self.fault.decide(OpKind::Transfer) {
            FaultDecision::Kill { dpu, op } => {
                self.record_fault("kill", op, Some(dpu));
                Err(SimError::DpuDead { dpu })
            }
            FaultDecision::Fail { op: fault_op } => {
                self.finish_transfer(op, writes, per_dpu_bytes, Some(fault_op));
                Err(SimError::FaultTransfer { op: fault_op })
            }
            decision => Ok(decision),
        }
    }

    /// Bills one rank-parallel transfer batch to the current phase (the
    /// max per-DPU payload against the aggregate bandwidth cap) and writes
    /// its trace and metric events. A transfer that fault-plan op `failed`
    /// broke moved no bytes, but its bus time is wasted all the same; the
    /// zero-byte span keeps the trace summing to the clock.
    fn finish_transfer(
        &mut self,
        op: &'static str,
        writes: usize,
        per_dpu_bytes: &[u64],
        failed: Option<u64>,
    ) {
        let bytes = match failed {
            None => per_dpu_bytes.iter().sum(),
            Some(_) => 0,
        };
        let seconds = self.clock(|cost| cost.transfer_seconds(per_dpu_bytes));
        let phase = self.phase;
        self.transfer_bytes += bytes;
        self.transfer_seconds += seconds;
        self.times.add(phase, seconds);
        self.trace.record(match op {
            "gather" => TraceEvent::Gather {
                bytes,
                seconds,
                phase,
            },
            _ => TraceEvent::Push {
                writes,
                bytes,
                seconds,
                phase,
            },
        });
        if let Some(fault_op) = failed {
            self.record_fault("transfer_fail", fault_op, None);
        }
        if let Some(hub) = &self.metrics {
            let ok = failed.is_none();
            hub.transfer(op, phase.metric_name(), writes as u64, bytes, seconds, ok);
        }
    }

    /// Flips the byte that `salt` picks in `data`, just written to `dpu` at
    /// `offset`, and records the corruption.
    fn corrupt_bank(
        &mut self,
        salt: u64,
        op: u64,
        dpu: usize,
        offset: u64,
        data: &[u8],
    ) -> SimResult<()> {
        let byte = (salt >> 8) % data.len() as u64;
        let flipped = data[byte as usize] ^ CORRUPT_MASK;
        self.dpus[dpu].host_write(offset + byte, &[flipped])?;
        self.fault.count_corruption();
        self.record_fault("corrupt", op, Some(dpu));
        Ok(())
    }

    /// Executes a rank-parallel CPU→PIM transfer batch. Data lands in MRAM
    /// immediately; modeled time accrues to the current phase.
    pub fn push(&mut self, writes: Vec<HostWrite>) -> SimResult<()> {
        let mut per_dpu_bytes = vec![0u64; self.dpus.len()];
        for w in &writes {
            if w.dpu >= self.dpus.len() {
                return Err(SimError::NoSuchDpu {
                    dpu: w.dpu,
                    allocated: self.dpus.len(),
                });
            }
            if self.fault.is_dead(w.dpu) {
                return Err(SimError::DpuDead { dpu: w.dpu });
            }
            per_dpu_bytes[w.dpu] += w.data.len() as u64;
        }
        let decision = self.transfer_decision("push", writes.len(), &per_dpu_bytes)?;
        for w in &writes {
            self.dpus[w.dpu].host_write(w.offset, &w.data)?;
        }
        if let FaultDecision::Corrupt { salt, op } = decision {
            let victims: Vec<&HostWrite> = writes.iter().filter(|w| !w.data.is_empty()).collect();
            if !victims.is_empty() {
                let w = victims[salt as usize % victims.len()];
                self.corrupt_bank(salt, op, w.dpu, w.offset, &w.data)?;
            }
        }
        self.finish_transfer("push", writes.len(), &per_dpu_bytes, None);
        Ok(())
    }

    /// Whether the fault plan has permanently killed `dpu`. Always false on
    /// a fault-free system.
    pub fn is_dpu_lost(&self, dpu: usize) -> bool {
        self.fault.is_dead(dpu)
    }

    /// Counters of faults injected so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault.counters()
    }

    /// Broadcasts the same payload to every live DPU at the same offset
    /// (UPMEM supports this as an optimized parallel transfer; modeled as
    /// one rank-parallel batch).
    ///
    /// The payload is shared across DPUs — nothing is cloned per core, so
    /// broadcasting a large sample to thousands of DPUs costs one write
    /// per bank, not one allocation per bank. Cost accounting is identical
    /// to [`Engine::push`] with the equivalent per-DPU write batch.
    pub fn broadcast(&mut self, offset: u64, data: &[u8]) -> SimResult<()> {
        let live: Vec<usize> = (0..self.dpus.len())
            .filter(|&d| !self.fault.is_dead(d))
            .collect();
        let mut per_dpu_bytes = vec![0u64; self.dpus.len()];
        for &d in &live {
            per_dpu_bytes[d] = data.len() as u64;
        }
        let writes = self.dpus.len();
        let decision = self.transfer_decision("broadcast", writes, &per_dpu_bytes)?;
        for &d in &live {
            self.dpus[d].host_write(offset, data)?;
        }
        if let FaultDecision::Corrupt { salt, op } = decision {
            if !live.is_empty() && !data.is_empty() {
                let d = live[salt as usize % live.len()];
                self.corrupt_bank(salt, op, d, offset, data)?;
            }
        }
        self.finish_transfer("broadcast", writes, &per_dpu_bytes, None);
        Ok(())
    }

    /// Gathers `len` bytes at `offset` from every DPU (PIM→CPU transfer),
    /// charging one rank-parallel batch.
    pub fn gather(&mut self, offset: u64, len: u64) -> SimResult<Vec<Vec<u8>>> {
        let rows = self.dpus.len();
        let per_dpu_bytes = vec![len; rows];
        let decision = self.transfer_decision("gather", rows, &per_dpu_bytes)?;
        // Dead DPUs answer with zeroed tombstones so positional indexing by
        // DPU id keeps working for the survivors.
        let mut out = self
            .dpus
            .iter()
            .map(|d| {
                if self.fault.is_dead(d.id()) {
                    Ok(vec![0u8; len as usize])
                } else {
                    d.host_read(offset, len)
                }
            })
            .collect::<SimResult<Vec<Vec<u8>>>>()?;
        if let FaultDecision::Corrupt { salt, op } = decision {
            let victims: Vec<usize> = (0..out.len())
                .filter(|&d| !self.fault.is_dead(d) && !out[d].is_empty())
                .collect();
            if !victims.is_empty() {
                let d = victims[salt as usize % victims.len()];
                let byte = (salt >> 8) as usize % out[d].len();
                out[d][byte] ^= CORRUPT_MASK;
                self.fault.count_corruption();
                self.record_fault("corrupt", op, Some(d));
            }
        }
        self.finish_transfer("gather", rows, &per_dpu_bytes, None);
        Ok(out)
    }

    /// Typed convenience over [`Engine::gather`]: one `T` per DPU read
    /// from the same offset.
    pub fn gather_one<T: Pod>(&mut self, offset: u64) -> SimResult<Vec<T>> {
        Ok(self
            .gather(offset, T::BYTES as u64)?
            .into_iter()
            .map(|bytes| T::read_le(&bytes))
            .collect())
    }

    /// Launches an SPMD kernel on every allocated DPU (in parallel on the
    /// host via rayon — DPUs are independent hardware). Returns each DPU's
    /// result in id order.
    ///
    /// Modeled time: `launch_overhead + max over DPUs of dpu_cycles`,
    /// because the host waits for the slowest PIM core — this is exactly
    /// the load-imbalance sensitivity the paper's edge-distribution
    /// analysis (§3.1) is about.
    pub fn execute<R, K>(&mut self, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        self.execute_labeled("kernel", kernel)
    }

    /// Like [`Engine::execute`], but names the launch so traces and
    /// [`crate::SystemReport`] launch profiles can attribute time to a
    /// specific kernel (e.g. `"sort"` vs `"count"`).
    pub fn execute_labeled<R, K>(&mut self, label: &str, kernel: K) -> SimResult<Vec<R>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        let results = self.execute_labeled_masked(label, kernel)?;
        results
            .into_iter()
            .enumerate()
            .map(|(dpu, r)| r.ok_or(SimError::DpuDead { dpu }))
            .collect()
    }

    /// Like [`Engine::execute_labeled`], but tolerant of permanently dead
    /// DPUs: their slots come back as `None` instead of failing the launch.
    /// Fault-aware orchestrators use this to keep driving the survivors.
    pub fn execute_labeled_masked<R, K>(
        &mut self,
        label: &str,
        kernel: K,
    ) -> SimResult<Vec<Option<R>>>
    where
        R: Send,
        K: Fn(&mut DpuContext<'_>) -> SimResult<R> + Sync,
    {
        match self.fault.decide(OpKind::Launch) {
            FaultDecision::Kill { dpu, op } => {
                self.record_fault("kill", op, Some(dpu));
                return Err(SimError::DpuDead { dpu });
            }
            FaultDecision::Fail { op } => {
                // The launch round-trip is wasted before any tasklet runs;
                // the zero-cycle span keeps the trace summing to the clock.
                let seconds = self.clock(|cost| cost.launch_overhead);
                self.times.add(self.phase, seconds);
                self.trace.record(TraceEvent::Kernel {
                    label: label.to_string(),
                    max_cycles: 0,
                    seconds,
                    phase: self.phase,
                    per_dpu_cycles: Vec::new(),
                    per_dpu_instructions: Vec::new(),
                    per_dpu_dma_bytes: Vec::new(),
                });
                self.record_fault("launch_fail", op, None);
                if let Some(hub) = &self.metrics {
                    hub.launch(LaunchObs {
                        label: label.to_string(),
                        phase: self.phase.metric_name(),
                        dpus: 0,
                        max_cycles: 0,
                        mean_cycles: 0.0,
                        instructions: 0,
                        dma_bytes: 0,
                        seconds,
                        ok: false,
                    });
                }
                return Err(SimError::FaultLaunch { op });
            }
            FaultDecision::None | FaultDecision::Corrupt { .. } => {}
        }
        let config = self.config;
        let cost = self.cost;
        let dead: Vec<bool> = self.fault.dead_flags().to_vec();
        let is_dead = |id: usize| dead.get(id).copied().unwrap_or(false);
        let results: Vec<(Option<R>, u64)> = self
            .dpus
            .par_iter_mut()
            .map(|dpu| {
                if is_dead(dpu.id()) {
                    return Ok((None, 0));
                }
                dpu.reset_kernel_counters();
                let mut ctx = DpuContext {
                    dpu,
                    config: &config,
                    cost: &cost,
                };
                let r = kernel(&mut ctx)?;
                // Cycles are data-derived (instruction and DMA counts), so
                // both engines observe the same ones; only seconds differ.
                let cycles = cost.dpu_cycles(&ctx.dpu.tasklet_instr, ctx.dpu.dma_cycles);
                Ok((Some(r), cycles))
            })
            .collect::<SimResult<_>>()?;
        let (results, per_dpu_cycles): (Vec<Option<R>>, Vec<u64>) = results.into_iter().unzip();
        let max_cycles = per_dpu_cycles.iter().copied().max().unwrap_or(0);
        let seconds = self.clock(|cost| cost.launch_overhead + cost.cycles_to_seconds(max_cycles));
        self.times.add(self.phase, seconds);
        // The per-kernel counters were reset at launch, so right now they
        // describe exactly this launch. Dead DPUs report zeros; their
        // counters are stale leftovers from before they died.
        let (per_dpu_instructions, per_dpu_dma_bytes): (Vec<u64>, Vec<u64>) = self
            .dpus
            .iter()
            .map(|d| {
                if is_dead(d.id()) {
                    (0, 0)
                } else {
                    (d.tasklet_instr.iter().sum(), d.kernel_dma_bytes)
                }
            })
            .unzip();
        if let Some(hub) = &self.metrics {
            let live = results.iter().filter(|r| r.is_some()).count() as u64;
            let cycle_sum: u64 = per_dpu_cycles.iter().sum();
            hub.launch(LaunchObs {
                label: label.to_string(),
                phase: self.phase.metric_name(),
                dpus: live,
                max_cycles,
                mean_cycles: if live > 0 {
                    cycle_sum as f64 / live as f64
                } else {
                    0.0
                },
                instructions: per_dpu_instructions.iter().sum(),
                dma_bytes: per_dpu_dma_bytes.iter().sum(),
                seconds,
                ok: true,
            });
            // Stream the full per-DPU distribution (dead cores as zeros —
            // the same vectors the trace's Kernel events carry) so the
            // hist event's p50/p99/imbalance reconcile exactly with the
            // final report's LaunchProfile.
            hub.launch_hist(
                label,
                self.phase.metric_name(),
                &per_dpu_cycles,
                &per_dpu_dma_bytes,
            );
        }
        self.trace.record(TraceEvent::Kernel {
            label: label.to_string(),
            max_cycles,
            seconds,
            phase: self.phase,
            per_dpu_cycles,
            per_dpu_instructions,
            per_dpu_dma_bytes,
        });
        Ok(results)
    }

    /// Sum of MRAM bytes in use across all DPUs.
    pub fn total_mram_used(&self) -> u64 {
        self.dpus.iter().map(Dpu::mram_used).sum()
    }

    /// Overrides the energy coefficients (defaults are UPMEM-calibrated).
    pub fn set_energy_model(&mut self, energy: EnergyModel) {
        self.energy = energy;
    }

    /// Total CPU<->PIM bytes moved so far.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.transfer_bytes
    }

    /// Total modeled seconds spent on CPU<->PIM transfers so far. Together
    /// with [`Engine::total_transfer_bytes`] this gives the achieved
    /// transfer bandwidth, comparable against the cost model's aggregate
    /// bandwidth cap.
    pub fn total_transfer_seconds(&self) -> SimSeconds {
        self.transfer_seconds
    }

    /// Energy totals for everything executed so far, derived from the
    /// lifetime activity counters and the modeled runtime (all-zero on the
    /// functional engine).
    pub fn energy_report(&self) -> EnergyReport {
        if !TIMED {
            return EnergyReport::default();
        }
        let instructions: u64 = self.dpus.iter().map(Dpu::lifetime_instructions).sum();
        let dma_bytes: u64 = self.dpus.iter().map(Dpu::lifetime_dma_bytes).sum();
        self.energy.report(
            instructions,
            dma_bytes,
            self.transfer_bytes,
            self.dpus.len(),
            self.times.total(),
        )
    }

    /// Frees the PIM cores, returning the final phase times. (Dropping the
    /// system works too; this makes the hand-off explicit in orchestrator
    /// code, mirroring `dpu_free` in the UPMEM SDK.)
    pub fn release(self) -> PhaseTimes {
        self.times
    }
}

/// Encodes a typed slice into the little-endian byte layout used in MRAM.
pub fn encode_slice<T: Pod>(items: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; items.len() * T::BYTES];
    for (i, item) in items.iter().enumerate() {
        item.write_le(&mut out[i * T::BYTES..]);
    }
    out
}

/// Decodes MRAM bytes into a typed vector. Panics if `bytes` is not a
/// multiple of the element size.
pub fn decode_slice<T: Pod>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(bytes.len() % T::BYTES, 0, "byte length not element-aligned");
    bytes.chunks_exact(T::BYTES).map(T::read_le).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> PimSystem {
        PimSystem::allocate(4, PimConfig::tiny(), CostModel::default()).unwrap()
    }

    #[test]
    fn allocation_respects_machine_size() {
        let cfg = PimConfig::tiny();
        assert!(PimSystem::allocate(64, cfg, CostModel::default()).is_ok());
        assert!(matches!(
            PimSystem::allocate(65, cfg, CostModel::default()),
            Err(SimError::TooManyDpus { .. })
        ));
    }

    #[test]
    fn allocation_charges_setup() {
        let sys = small_system();
        assert!(sys.phase_times().setup > 0.0);
        assert_eq!(sys.phase_times().sample_creation, 0.0);
    }

    #[test]
    fn push_then_kernel_then_gather() {
        let mut sys = small_system();
        sys.set_phase(Phase::SampleCreation);
        // Each DPU gets its id repeated as u32s.
        let writes = (0..4)
            .map(|dpu| HostWrite {
                dpu,
                offset: 0,
                data: encode_slice(&[dpu as u32; 8]),
            })
            .collect();
        sys.push(writes).unwrap();

        sys.set_phase(Phase::TriangleCount);
        // Kernel: every tasklet sums the values, tasklet 0 writes the sum.
        let results = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                let mut buf = [0u32; 8];
                t.mram_read(0, &mut buf)?;
                t.charge(8);
                let sum: u32 = buf.iter().sum();
                t.mram_write_one(64, sum)?;
                Ok(sum)
            })
            .unwrap();
        assert_eq!(results, vec![0, 8, 16, 24]);

        let gathered: Vec<u32> = sys.gather_one(64).unwrap();
        assert_eq!(gathered, vec![0, 8, 16, 24]);

        let t = sys.phase_times();
        assert!(t.sample_creation > 0.0);
        assert!(t.triangle_count > 0.0);
    }

    #[test]
    fn broadcast_reaches_every_dpu() {
        let mut sys = small_system();
        sys.broadcast(0, &encode_slice(&[7u32, 9])).unwrap();
        for id in 0..4 {
            let bytes = sys.dpu(id).unwrap().host_read(0, 8).unwrap();
            assert_eq!(decode_slice::<u32>(&bytes), vec![7, 9]);
        }
    }

    #[test]
    fn broadcast_matches_equivalent_push_batch() {
        // The shared-payload broadcast must be observationally identical
        // to pushing one cloned write per DPU: same MRAM contents, same
        // modeled time, same byte accounting, same trace event.
        let payload = encode_slice(&[3u32, 1, 4, 1, 5, 9, 2, 6]);

        let mut via_broadcast = small_system();
        via_broadcast.enable_tracing();
        via_broadcast.set_phase(Phase::SampleCreation);
        via_broadcast.broadcast(16, &payload).unwrap();

        let mut via_push = small_system();
        via_push.enable_tracing();
        via_push.set_phase(Phase::SampleCreation);
        let writes = (0..4)
            .map(|dpu| HostWrite {
                dpu,
                offset: 16,
                data: payload.clone(),
            })
            .collect();
        via_push.push(writes).unwrap();

        assert_eq!(via_broadcast.phase_times(), via_push.phase_times());
        assert_eq!(
            via_broadcast.total_transfer_bytes(),
            via_push.total_transfer_bytes()
        );
        assert_eq!(
            via_broadcast.total_transfer_seconds(),
            via_push.total_transfer_seconds()
        );
        assert_eq!(via_broadcast.trace(), via_push.trace());
        for id in 0..4 {
            assert_eq!(
                via_broadcast.dpu(id).unwrap().host_read(16, 32).unwrap(),
                via_push.dpu(id).unwrap().host_read(16, 32).unwrap()
            );
        }
    }

    #[test]
    fn transfer_seconds_accumulate_across_directions() {
        let mut sys = small_system();
        assert_eq!(sys.total_transfer_seconds(), 0.0);
        sys.broadcast(0, &[0u8; 64]).unwrap();
        let after_push = sys.total_transfer_seconds();
        assert!(after_push > 0.0);
        sys.gather(0, 64).unwrap();
        assert!(sys.total_transfer_seconds() > after_push);
    }

    #[test]
    fn kernel_error_propagates() {
        let mut sys = small_system();
        let err = sys
            .execute(|ctx| {
                let mut t = ctx.tasklet(0)?;
                // Read from uninitialized MRAM.
                t.mram_read_one::<u64>(1 << 20).map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::MramOverflow { .. } | SimError::BadAddress { .. }
        ));
    }

    #[test]
    fn execute_time_tracks_slowest_dpu() {
        let mut sys = small_system();
        sys.set_phase(Phase::TriangleCount);
        let before = sys.phase_times().triangle_count;
        sys.execute(|ctx| {
            // DPU 3 does 100x the work of the others.
            let work = if ctx.dpu_id() == 3 { 100_000 } else { 1_000 };
            let mut t = ctx.tasklet(0)?;
            t.charge(work);
            Ok(())
        })
        .unwrap();
        let elapsed = sys.phase_times().triangle_count - before;
        let cost = CostModel::default();
        let expected = cost.launch_overhead + cost.cycles_to_seconds(100_000 * 11);
        assert!(
            (elapsed - expected).abs() < 1e-9,
            "elapsed {elapsed} expected {expected}"
        );
    }

    #[test]
    fn push_rejects_unknown_dpu() {
        let mut sys = small_system();
        let err = sys
            .push(vec![HostWrite {
                dpu: 99,
                offset: 0,
                data: vec![0],
            }])
            .unwrap_err();
        assert!(matches!(err, SimError::NoSuchDpu { dpu: 99, .. }));
    }

    #[test]
    fn host_seconds_accrue_to_current_phase() {
        let mut sys = small_system();
        sys.set_phase(Phase::SampleCreation);
        sys.charge_host_seconds(1.25);
        assert_eq!(sys.phase_times().sample_creation, 1.25);
    }

    #[test]
    fn encode_decode_round_trip() {
        let xs = [1u64, u64::MAX, 42];
        assert_eq!(decode_slice::<u64>(&encode_slice(&xs)), xs.to_vec());
    }

    #[test]
    #[should_panic(expected = "element-aligned")]
    fn decode_rejects_ragged_bytes() {
        decode_slice::<u32>(&[1, 2, 3]);
    }

    #[test]
    fn release_returns_times() {
        let sys = small_system();
        let t = sys.release();
        assert!(t.setup > 0.0);
    }
}
