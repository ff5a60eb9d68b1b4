//! Off-chip memory timing models: HBM2 and DDR4.
//!
//! The U280 carries 8 GB of HBM2 (32 channels, 460 GB/s theoretical) and
//! 32 GB of DDR4 (38 GB/s theoretical) — paper §IV-B. The DFX DMA connects
//! to *all 32* HBM channels and moves 32 × 512 bits per kernel cycle, i.e.
//! 2048 bytes/cycle at 200 MHz = 409.6 GB/s of kernel-visible peak. Real
//! designs sustain a fraction of that (refresh, row activation, crossbar
//! contention); the models apply a calibrated efficiency factor plus a
//! fixed per-request setup cost.

use crate::clock::Cycles;
use serde::{Deserialize, Serialize};

/// HBM2 subsystem timing model (one device's 32 channels in aggregate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HbmModel {
    /// Number of pseudo-channels (32 on the U280).
    pub channels: u32,
    /// Bytes per channel per kernel cycle (512 bits = 64 B).
    pub bytes_per_channel_cycle: u32,
    /// Sustained fraction of peak for long sequential streams.
    ///
    /// Calibrated: 0.52 reproduces the paper's matrix-op latencies on the
    /// 1.5B model together with the MPU pipeline overheads (DESIGN.md §5).
    pub stream_efficiency: f64,
    /// Fixed cycles to set up one streaming request (address generation,
    /// AXI handshake, first-beat latency across the 410 MHz boundary).
    pub request_setup: Cycles,
    /// Capacity in bytes (8 GB).
    pub capacity_bytes: u64,
}

impl Default for HbmModel {
    fn default() -> Self {
        HbmModel {
            channels: 32,
            bytes_per_channel_cycle: 64,
            stream_efficiency: 0.52,
            request_setup: Cycles(96),
            capacity_bytes: 8 * (1 << 30),
        }
    }
}

impl HbmModel {
    /// Peak bytes per kernel cycle across all channels.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        f64::from(self.channels) * f64::from(self.bytes_per_channel_cycle)
    }

    /// Cycles to stream `bytes` sequentially (one request).
    pub fn stream_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let per_cycle = self.peak_bytes_per_cycle() * self.stream_efficiency;
        self.request_setup + Cycles((bytes as f64 / per_cycle).ceil() as u64)
    }

    /// Cycles to stream `bytes` as `requests` separate requests (e.g. one
    /// per K/V head region).
    pub fn scattered_cycles(&self, bytes: u64, requests: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let per_cycle = self.peak_bytes_per_cycle() * self.stream_efficiency;
        self.request_setup * requests.max(1) + Cycles((bytes as f64 / per_cycle).ceil() as u64)
    }
}

/// Capacity model of one device's HBM: what is *resident*, not how fast
/// it streams.
///
/// Paper §IV-B places two things in each U280's 8 GB of HBM: the core's
/// weight-matrix shard (streamed every token, so it must live in the
/// fast memory) and the growing K/V attention cache of every live
/// request. The timing models above answer "how long does a stream
/// take"; this model answers "does it fit" — the binding constraint for
/// multi-request serving, where each admitted request claims
/// `kv_bytes_per_token × (context + output)` bytes until it retires.
///
/// The model is deliberately raw (three byte counts): the appliance
/// derives `weight_bytes` and `kv_bytes_per_token` from the model
/// geometry and cluster partition, a GPU backend from its own sharding.
/// All capacities are per *device* — a model-parallel cluster replicates
/// the constraint on every card, so one device's budget bounds the whole
/// appliance's live batch.
///
/// # Examples
///
/// ```
/// use dfx_hw::MemoryModel;
///
/// // 1 GiB device holding a 768 MiB weight shard, 64 KiB of KV per token.
/// let m = MemoryModel::new(1 << 30, 768 << 20, 64 << 10);
/// assert_eq!(m.kv_budget_bytes(), 256 << 20);
/// assert_eq!(m.max_resident_tokens(), 4096);
/// assert!(m.fits_tokens(4096) && !m.fits_tokens(4097));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Device memory capacity in bytes (8 GiB of HBM2 on the U280).
    pub capacity_bytes: u64,
    /// Bytes of the resident weight shard (never evicted: every token
    /// step streams it).
    pub weight_bytes: u64,
    /// K/V cache bytes one context token occupies on this device, across
    /// all layers and locally-resident heads (keys + values, FP16).
    pub kv_bytes_per_token: u64,
}

impl MemoryModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if `kv_bytes_per_token` is zero (a transformer always
    /// caches K/V) or the weight shard alone exceeds the capacity (such
    /// a device cannot run the model at all — partition wider instead).
    pub fn new(capacity_bytes: u64, weight_bytes: u64, kv_bytes_per_token: u64) -> Self {
        assert!(
            kv_bytes_per_token > 0,
            "kv_bytes_per_token must be positive"
        );
        assert!(
            weight_bytes <= capacity_bytes,
            "weight shard ({weight_bytes} B) exceeds device capacity ({capacity_bytes} B)"
        );
        MemoryModel {
            capacity_bytes,
            weight_bytes,
            kv_bytes_per_token,
        }
    }

    /// Bytes left for K/V caches once the weight shard is resident.
    pub fn kv_budget_bytes(&self) -> u64 {
        self.capacity_bytes - self.weight_bytes
    }

    /// Bytes a request holding `tokens` total context positions claims.
    pub fn kv_claim_bytes(&self, tokens: usize) -> u64 {
        tokens as u64 * self.kv_bytes_per_token
    }

    /// Whether K/V state for `tokens` total resident context positions
    /// (summed over every live request) fits next to the weights.
    pub fn fits_tokens(&self, tokens: usize) -> bool {
        self.kv_claim_bytes(tokens) <= self.kv_budget_bytes()
    }

    /// The largest total number of context positions whose K/V state
    /// fits — the device's hard ceiling on `Σ (input + output)` over
    /// every concurrently-resident request.
    pub fn max_resident_tokens(&self) -> u64 {
        self.kv_budget_bytes() / self.kv_bytes_per_token
    }

    /// The same model with a different device capacity (what-if knob for
    /// capacity sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the weight shard no longer fits.
    #[must_use]
    pub fn with_capacity(mut self, capacity_bytes: u64) -> Self {
        assert!(
            self.weight_bytes <= capacity_bytes,
            "weight shard ({} B) exceeds device capacity ({capacity_bytes} B)",
            self.weight_bytes
        );
        self.capacity_bytes = capacity_bytes;
        self
    }
}

/// DDR4 channel timing model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdrModel {
    /// Theoretical bandwidth in bytes per kernel cycle (38.4 GB/s at
    /// 200 MHz = 192 B/cycle).
    pub bytes_per_cycle: u32,
    /// Sustained fraction of peak.
    pub stream_efficiency: f64,
    /// Fixed cycles per request.
    pub request_setup: Cycles,
    /// Capacity in bytes (32 GB).
    pub capacity_bytes: u64,
}

impl Default for DdrModel {
    fn default() -> Self {
        DdrModel {
            bytes_per_cycle: 192,
            stream_efficiency: 0.70,
            request_setup: Cycles(60),
            capacity_bytes: 32 * (1 << 30),
        }
    }
}

impl DdrModel {
    /// Cycles to transfer `bytes` in one request.
    pub fn transfer_cycles(&self, bytes: u64) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let per_cycle = f64::from(self.bytes_per_cycle) * self.stream_efficiency;
        self.request_setup + Cycles((bytes as f64 / per_cycle).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_peak_matches_paper_dma_width() {
        let hbm = HbmModel::default();
        // 32 channels x 512 bits @ 200 MHz = 409.6 GB/s kernel-visible.
        assert_eq!(hbm.peak_bytes_per_cycle(), 2048.0);
    }

    #[test]
    fn stream_cost_scales_linearly_beyond_setup() {
        let hbm = HbmModel::default();
        let setup = hbm.request_setup.0;
        let small = hbm.stream_cycles(2048).0 - setup;
        let big = hbm.stream_cycles(2048 * 1000).0 - setup;
        // Payload part scales ~1000x (within ceil rounding).
        assert!(
            big >= small * 800 && big <= small * 1100,
            "payload scaling: {small} vs {big}"
        );
        assert_eq!(hbm.stream_cycles(0), Cycles::ZERO);
    }

    #[test]
    fn one_fifteen_b_layer_stream_time_is_microseconds() {
        // One core's FFN1 partition on the 1.5B model / 4 cores:
        // 1536 x 1536 FP16 = 4.7 MB -> ~22 µs at 52% of 409.6 GB/s.
        // (Two such streams per layer x 48 layers ≈ 2.1 ms, matching the
        // paper's 29.6% FFN share of the 6.9 ms token latency.)
        let hbm = HbmModel::default();
        let bytes = 1536 * 1536 * 2;
        let us = hbm.stream_cycles(bytes).to_micros();
        assert!(us > 16.0 && us < 28.0, "{us} µs");
    }

    #[test]
    fn scattered_requests_pay_setup_per_request() {
        let hbm = HbmModel::default();
        let single = hbm.stream_cycles(4096);
        let scattered = hbm.scattered_cycles(4096, 8);
        assert_eq!(
            scattered.0 - single.0,
            hbm.request_setup.0 * 7,
            "7 extra setups"
        );
    }

    #[test]
    fn memory_model_budget_and_claims_are_consistent() {
        let m = MemoryModel::new(8 * (1 << 30), 3 * (1 << 30), 72 << 10);
        assert_eq!(m.kv_budget_bytes(), 5 * (1 << 30));
        assert_eq!(m.kv_claim_bytes(2), 144 << 10);
        let max = m.max_resident_tokens();
        assert!(m.fits_tokens(max as usize));
        assert!(!m.fits_tokens(max as usize + 1));
        // Shrinking capacity shrinks the KV budget one for one.
        let small = m.with_capacity(4 * (1 << 30));
        assert_eq!(small.kv_budget_bytes(), 1 << 30);
        assert!(small.max_resident_tokens() < m.max_resident_tokens());
    }

    #[test]
    #[should_panic(expected = "exceeds device capacity")]
    fn memory_model_rejects_oversized_weight_shards() {
        let _ = MemoryModel::new(1 << 20, 2 << 20, 1024);
    }

    #[test]
    fn ddr_is_much_slower_than_hbm() {
        let hbm = HbmModel::default();
        let ddr = DdrModel::default();
        let bytes = 1 << 20;
        assert!(ddr.transfer_cycles(bytes).0 > 5 * hbm.stream_cycles(bytes).0);
    }
}
