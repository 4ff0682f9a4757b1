//! The repository benchmark: one named workload per invocation, every
//! metric printed by name and unit, operations attempted and failed
//! per kind, and every output checked.
//!
//! Workloads (closed loop throughout; `BENCHMARK.json` declares which
//! ones the benchmark measures):
//!
//! * `sim-paper` — `driver::run` of live migration at the paper's
//!   Table III geometry (4 MB macro pages, 10K-access epochs).
//! * `sim-finepage` — the same design at 4 KB macro pages with a
//!   131073-row OS-assisted translation table.
//! * `serve-mixed` — an in-process `hmm_serve::Server` over loopback
//!   with a pre-filled durable store and checkpointing on: cache hits,
//!   fresh simulations, trace uploads and simulations of the uploads.
//! * `grid-sweep` — Fig. 11-shaped `POST /v1/sweeps` grids polled to
//!   completion, their figures fetched.
//!
//! See `README.md` beside this crate for the metrics and what moves them.

pub mod compare;
pub mod layers;
pub mod report;
pub mod serving;
pub mod sim;
pub mod spans;

use report::{Host, Report};
use std::path::PathBuf;

/// Every workload this package runs. `BENCHMARK.json` declares the ones
/// the benchmark measures; `README.md` says why the others are left out.
pub const WORKLOADS: [&str; 4] = ["sim-paper", "sim-finepage", "serve-mixed", "grid-sweep"];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Measured seconds; each workload finishes the round it is in, and
    /// always at least one.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for stores and registries; removed afterwards.
    pub work: PathBuf,
    pub host: Host,
}

/// SplitMix64 of `seed` and `tag`, cut to 32 bits: every input seed
/// the benchmark derives comes from the `--seed` argument through this.
/// The cut keeps seeds exact on the wire, where request numbers are
/// read as `f64` (a seed above 2^53 would be rounded).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 32
}

/// The trace id of `bytes`, computed here from its definition (FxHash
/// over little-endian 8-byte words, zero-padded tail, then a SplitMix64
/// finaliser) rather than by the code that assigns ids.
pub fn own_snap_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run one workload.
pub fn run(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    match workload {
        "sim-paper" => sim::run_workload(ctx, sim::paper_cfg(mix(ctx.seed, 1)), 1, &mut rep),
        "sim-finepage" => {
            sim::run_workload(ctx, sim::finepage_cfg(mix(ctx.seed, 2)), ctx.host.nproc, &mut rep)
        }
        "serve-mixed" => serving::run_serve_mixed(ctx, &mut rep)?,
        "grid-sweep" => serving::run_grid_sweep(ctx, &mut rep)?,
        other => return Err(format!("unknown workload '{other}' (want one of {WORKLOADS:?})")),
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_snap_hash_matches_the_trace_id() {
        for len in [0usize, 1, 7, 8, 9, 1000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(own_snap_hash(&bytes), hmm_sim_base::snap::snap_hash(&bytes), "len {len}");
        }
    }

    #[test]
    fn mix_separates_tags() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
