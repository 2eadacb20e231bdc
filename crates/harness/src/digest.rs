//! The behavioral digest shared by the suite harness and the scenario
//! replayer.
//!
//! One FNV-1a-64 hash covers, per stream: a `0xFF` separator, the
//! retained frame count, then per frame the selected configuration index
//! and detection count. Two runs with equal digests made the same
//! selection sequence and produced the same detection counts — the
//! bit-level determinism property both the perf gate and the distilled
//! scenario suites assert.

use ecofusion_runtime::PerceptionServer;

/// FNV-1a 64-bit running hash.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mixes one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes a `u64` (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Mixes `stream`'s behavioral record (selection sequence + detection
/// counts from its telemetry) into `digest` — the per-stream scheme the
/// harness rollup (suites and scenarios alike) and the serving benchmark
/// share, kept in one place so they can never drift apart.
pub fn absorb_stream(digest: &mut Fnv1a, server: &PerceptionServer, stream: usize) {
    let t = server.telemetry(stream);
    digest.byte(0xFF);
    digest.u64(t.frames());
    for (config, dets) in t.selected_configs().iter().zip(t.detections()) {
        digest.u64(config.0 as u64);
        digest.u64(dets.len() as u64);
    }
}

/// Formats a finished digest the way reports store it.
pub fn format_digest(digest: &Fnv1a) -> String {
    format!("{:016x}", digest.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::default();
        h.byte(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn u64_mixes_le_bytes() {
        let mut a = Fnv1a::default();
        a.u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::default();
        for byte in [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01] {
            b.byte(byte);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
