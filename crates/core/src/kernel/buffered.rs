//! The buffered count kernels, kept only as a test oracle.
//!
//! These are the count and local-count kernels as they read MRAM before
//! the reads moved onto views: every index and sample probe is an
//! `mram_read_one`, and every intersection streams both sides through
//! real WRAM buffers with `mram_read`. The production kernels in
//! [`super::count`] and [`super::local`] must return the same counts and
//! charge exactly the same per-tasklet instructions, DMA cycles and DMA
//! bytes; the differential tests below pin that.

use super::count::{
    choose_adaptive, IntersectStrategy, Pick, BITMAP_INSTR_PER_CLEAR_WORD, BITMAP_INSTR_PER_KEY,
    EDGE_INSTR, GALLOP_INSTR_PER_KEY, LONG_U_PROBE, MERGE_INSTR_PER_CMP, PROBE_INSTR, PROBE_MIN_V,
    STRATEGY_INSTR,
};
use super::layout::{Header, MramLayout};
use super::local::{LocalCache, EDGE_INSTR as LOCAL_EDGE_INSTR};
use super::{key_first, key_second};
use pim_sim::{DpuContext, SimResult, Tasklet};

/// The count kernel over buffered reads (region lookup by binary search).
pub(super) fn count_kernel(
    ctx: &mut DpuContext<'_>,
    layout: &MramLayout,
    strategy: IntersectStrategy,
) -> SimResult<u64> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let len = hdr.len;
    let index_len = hdr.index_len;
    let nr_t = ctx.nr_tasklets() as u64;
    let mut total = 0u64;
    if len >= 3 && index_len > 0 {
        let mut partials = vec![0u64; ctx.nr_tasklets()];
        let mut tasklet_id = 0usize;
        // Merge/Gallop never touch the bitmap, so they keep the larger
        // three-way WRAM split (and Merge stays charge-identical to the
        // pre-optimization kernel — the ablation baseline).
        let wants_bitmap = matches!(
            strategy,
            IntersectStrategy::Adaptive | IntersectStrategy::Bitmap
        );
        ctx.for_each_tasklet(|t| {
            let ways = if wants_bitmap { 4 } else { 3 };
            let b = ((t.wram_free() / 8) / ways).max(4);
            let mut buf_e = t.alloc_wram::<u64>(b)?;
            let mut buf_u = t.alloc_wram::<u64>(b)?;
            let mut buf_v = t.alloc_wram::<u64>(b)?;
            let mut bitmap: Vec<u64> = if wants_bitmap {
                t.alloc_wram::<u64>(b)?
            } else {
                Vec::new()
            };
            let bitmap_bits = bitmap.len() as u64 * 64;
            // The `u`-region end of the most recent distinct `u`:
            // consecutive edges in a block share `u`, so the extra
            // index search amortizes to ~one per vertex per block.
            let mut u_cache: Option<(u32, u64)> = None;
            // Vertices the tiny-`v` far probe already proved short, so
            // later edges of the same `u` skip straight to the merge.
            let mut short_u_cache: Option<u32> = None;
            let mut count = 0u64;
            // Strided blocks of edges per tasklet.
            let mut block = t.id() as u64;
            let blocks = len.div_ceil(b as u64);
            while block < blocks {
                let start = block * b as u64;
                let n = (b as u64).min(len - start) as usize;
                t.mram_read(layout.sample_slot(start), &mut buf_e[..n])?;
                for (i, &key) in buf_e.iter().enumerate().take(n) {
                    let g = start + i as u64;
                    let (u, v) = (key_first(key), key_second(key));
                    t.charge(EDGE_INSTR);
                    let region = lookup_region(t, layout, v, index_len, len)?;
                    let Some((v_start, v_end)) = region else {
                        continue;
                    };
                    if matches!(strategy, IntersectStrategy::Merge) {
                        count += merge_intersect(
                            t,
                            layout,
                            u,
                            g + 1,
                            len,
                            v_start,
                            v_end,
                            &mut buf_u,
                            &mut buf_v,
                        )?;
                        continue;
                    }
                    let u_from = g + 1;
                    let v_len = v_end - v_start;
                    if u_from >= len {
                        continue;
                    }
                    // Cheap u-list emptiness test before any index work:
                    // the sample is sorted, so `u`'s remaining adjacency
                    // is empty iff the next sample key has left `u` — and
                    // that key is usually already resident in `buf_e`.
                    let next = if i + 1 < n {
                        t.charge(1);
                        buf_e[i + 1]
                    } else {
                        t.charge(PROBE_INSTR);
                        t.mram_read_one(layout.sample_slot(u_from))?
                    };
                    if key_first(next) != u {
                        continue; // empty u-list: nothing to intersect
                    }
                    // Tiny-v gate (adaptive only): with a short `v` side,
                    // only a very long `u`-list can beat the merge — test
                    // that with one far probe instead of paying the full
                    // binary-search region lookup, and remember short-`u`
                    // verdicts so runs of the same vertex probe once.
                    if matches!(strategy, IntersectStrategy::Adaptive)
                        && v_len < PROBE_MIN_V
                        && u_cache.is_none_or(|(node, _)| node != u)
                    {
                        let far = u_from + LONG_U_PROBE;
                        let long_u = short_u_cache != Some(u) && far < len && {
                            t.charge(PROBE_INSTR);
                            let probe: u64 = t.mram_read_one(layout.sample_slot(far))?;
                            key_first(probe) == u
                        };
                        if !long_u {
                            short_u_cache = Some(u);
                            count += merge_intersect(
                                t, layout, u, u_from, len, v_start, v_end, &mut buf_u, &mut buf_v,
                            )?;
                            continue;
                        }
                    }
                    let u_end = match u_cache {
                        Some((node, end)) if node == u => end,
                        _ => {
                            let end = lookup_region(t, layout, u, index_len, len)?
                                .map_or(u_from, |(_, end)| end);
                            u_cache = Some((u, end));
                            end
                        }
                    };
                    let u_len = u_end.saturating_sub(u_from);
                    if u_len == 0 || v_len == 0 {
                        continue;
                    }
                    let pick = match strategy {
                        IntersectStrategy::Gallop => Pick::Gallop,
                        IntersectStrategy::Bitmap => Pick::Bitmap,
                        IntersectStrategy::Adaptive => {
                            t.charge(STRATEGY_INSTR);
                            choose_adaptive(t, u_len, v_len, b as u64, bitmap_bits)
                        }
                        IntersectStrategy::Merge => unreachable!("handled above"),
                    };
                    count += match pick {
                        Pick::Merge => merge_intersect(
                            t, layout, u, u_from, len, v_start, v_end, &mut buf_u, &mut buf_v,
                        )?,
                        Pick::Gallop => {
                            if u_len <= v_len {
                                gallop_intersect(
                                    t, layout, u_from, u_end, v_start, v_end, &mut buf_u,
                                )?
                            } else {
                                gallop_intersect(
                                    t, layout, v_start, v_end, u_from, u_end, &mut buf_v,
                                )?
                            }
                        }
                        Pick::Bitmap => {
                            let attempted = if bitmap_bits > 0 {
                                bitmap_intersect(
                                    t,
                                    layout,
                                    u_from,
                                    u_end,
                                    v_start,
                                    v_end,
                                    &mut buf_u,
                                    &mut buf_v,
                                    &mut bitmap,
                                )?
                            } else {
                                None
                            };
                            match attempted {
                                Some(c) => c,
                                None => merge_intersect(
                                    t, layout, u, u_from, len, v_start, v_end, &mut buf_u,
                                    &mut buf_v,
                                )?,
                            }
                        }
                    };
                }
                block += nr_t;
            }
            partials[tasklet_id] = count;
            tasklet_id += 1;
            Ok(())
        })?;
        total = partials.iter().sum();
    }
    let mut t0 = ctx.tasklet(0)?;
    let mut hdr = Header::read(&mut t0)?;
    hdr.result = total;
    hdr.write(&mut t0)?;
    Ok(total)
}

/// The local-count kernel over buffered reads.
pub(super) fn local_count_kernel(ctx: &mut DpuContext<'_>, layout: &MramLayout) -> SimResult<u64> {
    let hdr = {
        let mut t0 = ctx.tasklet(0)?;
        Header::read(&mut t0)?
    };
    let len = hdr.len;
    let index_len = hdr.index_len;
    let nr_t = ctx.nr_tasklets() as u64;
    let mut total = 0u64;
    if len >= 3 && index_len > 0 {
        let mut partials = vec![0u64; ctx.nr_tasklets()];
        ctx.for_each_tasklet(|t| {
            // Budget: 3 streaming buffers + the local cache (power of two,
            // ~1/4 of the share).
            let share = t.wram_free() / 8;
            // Largest power of two at most a quarter of the share.
            let cache_slots = 1usize << (usize::BITS - 1 - (share / 4).max(4).leading_zeros());
            let mut cache = LocalCache::new(t, cache_slots)?;
            let b = ((t.wram_free() / 8) / 3).max(4);
            let mut buf_e = t.alloc_wram::<u64>(b)?;
            let mut buf_u = t.alloc_wram::<u64>(b)?;
            let mut buf_v = t.alloc_wram::<u64>(b)?;
            let mut count = 0u64;
            let mut block = t.id() as u64;
            let blocks = len.div_ceil(b as u64);
            while block < blocks {
                let start = block * b as u64;
                let n = (b as u64).min(len - start) as usize;
                t.mram_read(layout.sample_slot(start), &mut buf_e[..n])?;
                for (i, &key) in buf_e.iter().enumerate().take(n) {
                    let g = start + i as u64;
                    let (u, v) = (key_first(key), key_second(key));
                    t.charge(LOCAL_EDGE_INSTR);
                    let Some((v_start, v_end)) = lookup_region(t, layout, v, index_len, len)?
                    else {
                        continue;
                    };
                    count += merge_intersect_cb(
                        t,
                        layout,
                        u,
                        g + 1,
                        len,
                        v_start,
                        v_end,
                        &mut buf_u,
                        &mut buf_v,
                        &mut |t, w| {
                            cache.bump(t, layout, u)?;
                            cache.bump(t, layout, v)?;
                            cache.bump(t, layout, w)
                        },
                    )?;
                }
                block += nr_t;
            }
            cache.flush_all(t, layout)?;
            partials[t.id()] = count;
            Ok(())
        })?;
        total = partials.iter().sum();
    }
    let mut t0 = ctx.tasklet(0)?;
    let mut hdr = Header::read(&mut t0)?;
    hdr.result = total;
    hdr.write(&mut t0)?;
    Ok(total)
}

/// Binary search of the region index for `node`. Returns the half-open
/// sample range of edges whose first endpoint is `node`.
fn lookup_region(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    node: u32,
    index_len: u64,
    sample_len: u64,
) -> SimResult<Option<(u64, u64)>> {
    let (mut lo, mut hi) = (0u64, index_len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let entry: u64 = t.mram_read_one(layout.index_slot(mid))?;
        t.charge(PROBE_INSTR);
        if key_first(entry) < node {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == index_len {
        return Ok(None);
    }
    let entry: u64 = t.mram_read_one(layout.index_slot(lo))?;
    t.charge(PROBE_INSTR);
    if key_first(entry) != node {
        return Ok(None);
    }
    let start = key_second(entry) as u64;
    let end = if lo + 1 < index_len {
        let next: u64 = t.mram_read_one(layout.index_slot(lo + 1))?;
        t.charge(PROBE_INSTR);
        key_second(next) as u64
    } else {
        sample_len
    };
    Ok(Some((start, end)))
}

/// Streams the `u`-side (edges after the current one while their first
/// node is still `u`) against the `v` region, counting matching second
/// nodes. Both sides refill their WRAM buffers from MRAM on demand.
#[allow(clippy::too_many_arguments)]
fn merge_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u: u32,
    u_from: u64,
    sample_len: u64,
    v_start: u64,
    v_end: u64,
    buf_u: &mut [u64],
    buf_v: &mut [u64],
) -> SimResult<u64> {
    merge_intersect_cb(
        t,
        layout,
        u,
        u_from,
        sample_len,
        v_start,
        v_end,
        buf_u,
        buf_v,
        &mut |_t, _w| Ok(()),
    )
}

/// [`merge_intersect`] with a per-triangle callback: `on_match` is
/// invoked with the closing vertex `w` for every triangle found (the
/// caller knows `u` and `v`). Used by the local-counting extension.
#[allow(clippy::too_many_arguments)]
fn merge_intersect_cb<F>(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u: u32,
    u_from: u64,
    sample_len: u64,
    v_start: u64,
    v_end: u64,
    buf_u: &mut [u64],
    buf_v: &mut [u64],
    on_match: &mut F,
) -> SimResult<u64>
where
    F: FnMut(&mut Tasklet<'_>, u32) -> SimResult<()>,
{
    let mut count = 0u64;
    let (mut next_u, mut pos_u, mut len_u) = (u_from, 0usize, 0usize);
    let (mut next_v, mut pos_v, mut len_v) = (v_start, 0usize, 0usize);
    let mut u_done = false;
    loop {
        if !u_done && pos_u == len_u {
            if next_u >= sample_len {
                u_done = true;
            } else {
                let n = (buf_u.len() as u64).min(sample_len - next_u) as usize;
                t.mram_read(layout.sample_slot(next_u), &mut buf_u[..n])?;
                next_u += n as u64;
                pos_u = 0;
                len_u = n;
            }
        }
        if pos_v == len_v {
            if next_v >= v_end {
                break; // v side exhausted
            }
            let n = (buf_v.len() as u64).min(v_end - next_v) as usize;
            t.mram_read(layout.sample_slot(next_v), &mut buf_v[..n])?;
            next_v += n as u64;
            pos_v = 0;
            len_v = n;
        }
        if u_done || pos_u >= len_u {
            break;
        }
        let ku = buf_u[pos_u];
        t.charge(MERGE_INSTR_PER_CMP);
        if key_first(ku) != u {
            break; // left u's region
        }
        let w = key_second(ku);
        let z = key_second(buf_v[pos_v]);
        match w.cmp(&z) {
            std::cmp::Ordering::Equal => {
                count += 1;
                on_match(t, w)?;
                pos_u += 1;
                pos_v += 1;
            }
            std::cmp::Ordering::Less => pos_u += 1,
            std::cmp::Ordering::Greater => pos_v += 1,
        }
    }
    Ok(count)
}

/// Galloping intersection of two sorted sample ranges, comparing second
/// endpoints (each range's first endpoint is constant by construction).
/// The short side streams through `buf_short`; for every short key the
/// long side is probed in MRAM with an exponential + binary search from
/// the last match position. A hit consumes exactly one long-side slot
/// (`long_lo = hit + 1`), which replicates the streaming merge's
/// min-multiplicity handling of duplicate edges element by element.
fn gallop_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    short_start: u64,
    short_end: u64,
    long_start: u64,
    long_end: u64,
    buf_short: &mut [u64],
) -> SimResult<u64> {
    let mut count = 0u64;
    let mut long_lo = long_start;
    let mut next = short_start;
    'outer: while next < short_end {
        let n = (buf_short.len() as u64).min(short_end - next) as usize;
        t.mram_read(layout.sample_slot(next), &mut buf_short[..n])?;
        next += n as u64;
        for &ks in &buf_short[..n] {
            if long_lo >= long_end {
                break 'outer;
            }
            let w = key_second(ks);
            t.charge(GALLOP_INSTR_PER_KEY);
            let lo = gallop_lower_bound(t, layout, w, long_lo, long_end)?;
            if lo >= long_end {
                break 'outer;
            }
            let entry: u64 = t.mram_read_one(layout.sample_slot(lo))?;
            t.charge(PROBE_INSTR);
            if key_second(entry) == w {
                count += 1;
                long_lo = lo + 1;
            } else {
                long_lo = lo;
            }
        }
    }
    Ok(count)
}

/// First slot in `[lo, end)` whose second endpoint is ≥ `w`, by
/// exponential probing from `lo` (runs of nearby matches cost O(1)
/// probes each) followed by a binary search of the overshoot window.
fn gallop_lower_bound(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    w: u32,
    lo: u64,
    end: u64,
) -> SimResult<u64> {
    let first: u64 = t.mram_read_one(layout.sample_slot(lo))?;
    t.charge(PROBE_INSTR);
    if key_second(first) >= w {
        return Ok(lo);
    }
    // Invariant: slot `lo + off` holds a second endpoint < `w`.
    let mut off = 0u64;
    let mut step = 1u64;
    loop {
        let idx = lo + off + step;
        if idx >= end {
            break;
        }
        let entry: u64 = t.mram_read_one(layout.sample_slot(idx))?;
        t.charge(PROBE_INSTR);
        if key_second(entry) >= w {
            break;
        }
        off += step;
        step *= 2;
    }
    let mut l = lo + off + 1;
    let mut h = (lo + off + step).min(end);
    while l < h {
        let mid = (l + h) / 2;
        let entry: u64 = t.mram_read_one(layout.sample_slot(mid))?;
        t.charge(PROBE_INSTR);
        if key_second(entry) < w {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    Ok(l)
}

/// Bitmap intersection: marks the `v` region's second endpoints in the
/// tasklet's WRAM bit array, then tests each distinct `w` run of the
/// `u` side in O(1). Returns `None` (after restoring the bitmap to
/// zero) when the strategy doesn't apply — the `z` span exceeds the bit
/// array, or the `v` region holds duplicate edges, whose
/// min-multiplicity semantics only the merge/gallop paths express.
#[allow(clippy::too_many_arguments)]
fn bitmap_intersect(
    t: &mut Tasklet<'_>,
    layout: &MramLayout,
    u_from: u64,
    u_end: u64,
    v_start: u64,
    v_end: u64,
    buf_u: &mut [u64],
    buf_v: &mut [u64],
    bitmap: &mut [u64],
) -> SimResult<Option<u64>> {
    let bitmap_bits = bitmap.len() as u64 * 64;
    // Range probes: the span of `z` values the bit array must cover.
    let z_lo_key: u64 = t.mram_read_one(layout.sample_slot(v_start))?;
    t.charge(PROBE_INSTR);
    let z_hi_key: u64 = t.mram_read_one(layout.sample_slot(v_end - 1))?;
    t.charge(PROBE_INSTR);
    let z_lo = key_second(z_lo_key) as u64;
    let range = key_second(z_hi_key) as u64 - z_lo + 1;
    if range > bitmap_bits {
        return Ok(None);
    }
    let words = range.div_ceil(64) as usize;
    // Mark phase: one bit per distinct z; a duplicate aborts to merge.
    let mut distinct = true;
    let mut next = v_start;
    'mark: while next < v_end {
        let n = (buf_v.len() as u64).min(v_end - next) as usize;
        t.mram_read(layout.sample_slot(next), &mut buf_v[..n])?;
        next += n as u64;
        for &kv in &buf_v[..n] {
            let bit = key_second(kv) as u64 - z_lo;
            t.charge(BITMAP_INSTR_PER_KEY);
            let (word, mask) = (bit as usize / 64, 1u64 << (bit % 64));
            if bitmap[word] & mask != 0 {
                distinct = false;
                break 'mark;
            }
            bitmap[word] |= mask;
        }
    }
    let mut count = 0u64;
    if distinct {
        // Test phase: each distinct `w` run contributes min(mu, 1) = 1
        // when its bit is set; run tracking survives buffer refills.
        let mut last_w: Option<u32> = None;
        let mut next = u_from;
        while next < u_end {
            let n = (buf_u.len() as u64).min(u_end - next) as usize;
            t.mram_read(layout.sample_slot(next), &mut buf_u[..n])?;
            next += n as u64;
            for &ku in &buf_u[..n] {
                let w = key_second(ku);
                t.charge(BITMAP_INSTR_PER_KEY);
                if last_w == Some(w) {
                    continue;
                }
                last_w = Some(w);
                let off = (w as u64).wrapping_sub(z_lo);
                if off < range && bitmap[off as usize / 64] & (1u64 << (off % 64)) != 0 {
                    count += 1;
                }
            }
        }
    }
    // Restore the touched words to zero for the next pair.
    t.charge(words as u64 * BITMAP_INSTR_PER_CLEAR_WORD);
    for word in &mut bitmap[..words] {
        *word = 0;
    }
    Ok(if distinct { Some(count) } else { None })
}

mod tests {
    use super::*;
    use crate::kernel::count::{count_kernel_opts, RegionLookup};
    use crate::kernel::{edge_key, index::index_kernel, local};
    use pim_graph::CooGraph;
    use pim_sim::system::{decode_slice, encode_slice};
    use pim_sim::{CostModel, HostWrite, PimConfig, PimSystem};

    /// What one count launch on the single DPU returned and charged.
    #[derive(Debug, PartialEq)]
    struct Launch {
        count: u64,
        tasklet_instr: Vec<u64>,
        dma_cycles: u64,
        dma_bytes: u64,
        locals: Vec<u64>,
    }

    /// Writes the sorted `keys` to one DPU under a layout with `nodes`
    /// local-count slots, indexes them, runs `kernel` and reads back what
    /// it returned and charged. WRAM per tasklet is `share` bytes.
    fn launch<K>(keys: &[u64], nodes: u64, tasklets: usize, share: usize, kernel: K) -> Launch
    where
        K: Fn(&mut DpuContext<'_>, &MramLayout) -> SimResult<u64> + Sync,
    {
        let mram = (keys.len() as u64 * 24 + nodes * 8 + 8192)
            .next_power_of_two()
            .max(1 << 16);
        let config = PimConfig {
            total_dpus: 1,
            mram_capacity: mram,
            wram_capacity: share * tasklets,
            nr_tasklets: tasklets,
            ..PimConfig::tiny()
        };
        let mut sys = PimSystem::allocate(1, config, CostModel::default()).unwrap();
        let layout =
            MramLayout::compute_with_locals(mram, 8, 0, nodes, Some((keys.len() as u64).max(3)))
                .unwrap();
        let hdr = Header {
            cap: layout.capacity,
            len: keys.len() as u64,
            ..Header::default()
        };
        sys.push(vec![
            HostWrite {
                dpu: 0,
                offset: 0,
                data: hdr.encode(),
            },
            HostWrite {
                dpu: 0,
                offset: layout.sample_off,
                data: encode_slice(keys),
            },
        ])
        .unwrap();
        sys.execute(|ctx| index_kernel(ctx, &layout)).unwrap();
        let count = sys.execute(|ctx| kernel(ctx, &layout)).unwrap()[0];
        let dpu = sys.dpu(0).unwrap();
        Launch {
            count,
            tasklet_instr: dpu.kernel_tasklet_instructions().to_vec(),
            dma_cycles: dpu.kernel_dma_cycles(),
            dma_bytes: dpu.kernel_dma_bytes(),
            locals: decode_slice(&dpu.host_read(layout.local_off, nodes * 8).unwrap()),
        }
    }

    /// Sorted, normalized sample keys of `pairs`; `dedup = false` keeps
    /// duplicate edges, which the count must combine by min-multiplicity.
    fn sample(pairs: impl IntoIterator<Item = (u32, u32)>, dedup: bool) -> (Vec<u64>, u64) {
        let mut keys: Vec<u64> = pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| edge_key(u.min(v), u.max(v)))
            .collect();
        keys.sort_unstable();
        if dedup {
            keys.dedup();
        }
        let nodes = keys
            .iter()
            .map(|&k| key_second(k) as u64 + 1)
            .max()
            .unwrap_or(0);
        (keys, nodes)
    }

    fn pairs(g: &CooGraph) -> Vec<(u32, u32)> {
        g.edges().iter().map(|e| (e.u, e.v)).collect()
    }

    /// rmat (skewed), Erdős–Rényi (uniform), complete (dense), a
    /// duplicate-heavy multigraph, and a hub whose 600-edge list sits over
    /// tiny neighbour regions (the far probe and galloping).
    fn samples() -> Vec<(&'static str, Vec<u64>, u64)> {
        let er = pairs(&pim_graph::gen::erdos_renyi(40, 0.3, 5));
        let duplicated = er
            .iter()
            .enumerate()
            .flat_map(|(i, &e)| std::iter::repeat_n(e, 1 + i % 3));
        let hub = (1..=600u32)
            .map(|v| (0, v))
            .chain((1..600u32).map(|v| (v, v + 1)));
        let named = [
            (
                "rmat",
                sample(
                    pairs(&pim_graph::gen::rmat(9, 8, 0.57, 0.19, 0.19, 3)),
                    true,
                ),
            ),
            (
                "erdos-renyi",
                sample(pairs(&pim_graph::gen::erdos_renyi(90, 0.15, 4)), true),
            ),
            (
                "complete",
                sample(pairs(&pim_graph::gen::simple::complete(70)), true),
            ),
            ("duplicate-heavy", sample(duplicated, false)),
            ("hub", sample(hub, true)),
        ];
        named
            .into_iter()
            .map(|(name, (keys, nodes))| (name, keys, nodes))
            .collect()
    }

    /// Tasklet counts and WRAM shares: 128 B puts the intersection buffers
    /// at the 4-key floor (5 keys without the bitmap), so refills are
    /// short and cross buffer boundaries mid-region; 4 KB is the paper's
    /// 64 KB split 16 ways.
    const SHAPES: [(usize, usize); 4] = [(1, 128), (16, 128), (1, 4096), (16, 4096)];

    const ALL_STRATEGIES: [IntersectStrategy; 4] = [
        IntersectStrategy::Adaptive,
        IntersectStrategy::Merge,
        IntersectStrategy::Gallop,
        IntersectStrategy::Bitmap,
    ];

    #[test]
    fn view_count_kernel_charges_like_buffered_oracle() {
        for (name, keys, nodes) in samples() {
            let reference = launch(&keys, nodes, 1, 4096, |ctx, layout| {
                count_kernel(ctx, layout, IntersectStrategy::Merge)
            })
            .count;
            for (tasklets, share) in SHAPES {
                for strategy in ALL_STRATEGIES {
                    let views = launch(&keys, nodes, tasklets, share, |ctx, layout| {
                        count_kernel_opts(ctx, layout, RegionLookup::BinarySearch, strategy)
                    });
                    let oracle = launch(&keys, nodes, tasklets, share, |ctx, layout| {
                        count_kernel(ctx, layout, strategy)
                    });
                    let at = format!("{name}, {tasklets} tasklets × {share} B, {strategy}");
                    assert_eq!(views, oracle, "{at}");
                    assert_eq!(views.count, reference, "{at}");
                }
            }
        }
    }

    #[test]
    fn view_local_count_kernel_charges_like_buffered_oracle() {
        for (name, keys, nodes) in samples() {
            for (tasklets, share) in SHAPES {
                let views = launch(&keys, nodes, tasklets, share, local::local_count_kernel);
                let oracle = launch(&keys, nodes, tasklets, share, local_count_kernel);
                assert_eq!(views, oracle, "{name}, {tasklets} tasklets × {share} B");
                assert_eq!(views.locals.iter().sum::<u64>(), 3 * views.count, "{name}");
            }
        }
    }
}
