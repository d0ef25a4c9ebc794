//! Seeded, replayable transport-fault injection for the chaos harness.
//!
//! [`FaultyTransport`] sits between the client and its socket and mangles
//! outbound frames the way a hostile network would: disconnects, partial
//! frames, corrupted bytes (length prefixes included), duplicated and
//! reordered frames, and stalls. Every decision comes from a
//! [`GaussianRng`] stream seeded by
//! [`ChaosConfig::seed`], so a failing soak replays bit-identically from
//! its seed — the same philosophy as `crates/faults`, one layer down the
//! stack (transport bytes instead of sensor values).
//!
//! The injector only mutates what a real network could mutate: bytes in
//! flight on one connection. It cannot reach into the server, which is
//! exactly why "no chaos schedule crashes the server / crosses tenants /
//! clears a latched alarm" are meaningful properties.

use voltsense_workload::GaussianRng;

/// Per-frame fault probabilities. All default to zero (chaos off);
/// [`ChaosConfig::moderate`] is the soak's standard mix.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// RNG seed; the whole schedule derives from it.
    pub seed: u64,
    /// Drop the connection instead of sending.
    pub p_disconnect: f64,
    /// Flip one random byte of the frame (header bytes included, so
    /// corrupt length prefixes and checksums both occur).
    pub p_corrupt: f64,
    /// Send only a prefix of the frame, then drop the connection.
    pub p_truncate: f64,
    /// Send the frame twice.
    pub p_duplicate: f64,
    /// Hold the frame back and send it after the next one (reorder).
    pub p_reorder: f64,
    /// Sleep [`ChaosConfig::stall_ms`] before sending.
    pub p_stall: f64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// Chaos disabled; only the seed matters (for jitter reuse).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            p_disconnect: 0.0,
            p_corrupt: 0.0,
            p_truncate: 0.0,
            p_duplicate: 0.0,
            p_reorder: 0.0,
            p_stall: 0.0,
            stall_ms: 0,
        }
    }

    /// The standard soak mix: every fault class occurs, none dominates.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            p_disconnect: 0.01,
            p_corrupt: 0.01,
            p_truncate: 0.005,
            p_duplicate: 0.02,
            p_reorder: 0.02,
            p_stall: 0.01,
            stall_ms: 5,
        }
    }
}

/// How many of each fault the injector has fired (soak reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames passed through untouched.
    pub clean: u64,
    /// Injected disconnects.
    pub disconnects: u64,
    /// Injected byte corruptions.
    pub corruptions: u64,
    /// Injected truncations (partial frame + disconnect).
    pub truncations: u64,
    /// Injected duplicates.
    pub duplicates: u64,
    /// Injected reorders.
    pub reorders: u64,
    /// Injected stalls.
    pub stalls: u64,
}

/// What the transport did to one offered frame. The caller performs the
/// actual socket writes; the injector only decides and mutates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injected {
    /// Write these byte chunks in order.
    Write(Vec<Vec<u8>>),
    /// Write these chunks, then treat the connection as dropped.
    WriteThenDisconnect(Vec<Vec<u8>>),
    /// Sleep this many milliseconds, then write the chunks.
    StallThenWrite(u64, Vec<Vec<u8>>),
}

/// Seeded fault injector for outbound frames.
#[derive(Debug)]
pub struct FaultyTransport {
    cfg: ChaosConfig,
    rng: GaussianRng,
    /// A frame held back by a reorder, delivered after the next frame.
    pocket: Option<Vec<u8>>,
    stats: ChaosStats,
}

impl FaultyTransport {
    /// Injector driven by `cfg` (schedule fixed by `cfg.seed`).
    pub fn new(cfg: ChaosConfig) -> Self {
        Self { cfg, rng: GaussianRng::seed_from_u64(cfg.seed ^ 0xC4A0_5C4A), pocket: None, stats: ChaosStats::default() }
    }

    /// Counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Frame held back by a pending reorder, if any (flush on shutdown).
    pub fn take_pocket(&mut self) -> Option<Vec<u8>> {
        self.pocket.take()
    }

    /// Decide the fate of one encoded frame.
    pub fn inject(&mut self, frame: Vec<u8>) -> Injected {
        let roll = self.rng.uniform();
        let c = &self.cfg;
        // One fault class per frame, picked by stacking the probability
        // bands; the pocket (reorder) composes with whatever comes next.
        let mut band = c.p_disconnect;
        if roll < band {
            self.stats.disconnects += 1;
            return Injected::WriteThenDisconnect(self.with_pocket(Vec::new()));
        }
        band += c.p_corrupt;
        if roll < band {
            self.stats.corruptions += 1;
            let mut bad = frame;
            if !bad.is_empty() {
                let at = self.rng.uniform_index(bad.len());
                let mut flip = 0;
                while flip == 0 {
                    flip = (self.rng.next_u64() & 0xFF) as u8;
                }
                bad[at] ^= flip;
            }
            // Corruption desyncs the stream: the server will close, so
            // model the aftermath as a disconnect too.
            return Injected::WriteThenDisconnect(self.with_pocket(vec![bad]));
        }
        band += c.p_truncate;
        if roll < band {
            self.stats.truncations += 1;
            let keep = self.rng.uniform_index(frame.len().max(1));
            let partial = frame[..keep].to_vec();
            return Injected::WriteThenDisconnect(self.with_pocket(vec![partial]));
        }
        band += c.p_duplicate;
        if roll < band {
            self.stats.duplicates += 1;
            return Injected::Write(self.with_pocket(vec![frame.clone(), frame]));
        }
        band += c.p_reorder;
        if roll < band {
            self.stats.reorders += 1;
            // Hold this frame; it rides behind the next one.
            let chunks = self.with_pocket(Vec::new());
            self.pocket = Some(frame);
            return Injected::Write(chunks);
        }
        band += c.p_stall;
        if roll < band {
            self.stats.stalls += 1;
            return Injected::StallThenWrite(c.stall_ms, self.with_pocket(vec![frame]));
        }
        self.stats.clean += 1;
        Injected::Write(self.with_pocket(vec![frame]))
    }

    /// Prepend a pocketed (reordered) frame to `chunks`, completing the
    /// swap: held frame goes out now, after the frame that overtook it.
    fn with_pocket(&mut self, chunks: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        match self.pocket.take() {
            Some(held) => {
                let mut out = chunks;
                out.push(held);
                out
            }
            None => chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(seed: u64, frames: usize) -> (ChaosStats, Vec<Injected>) {
        let mut t = FaultyTransport::new(ChaosConfig::moderate(seed));
        let out: Vec<Injected> =
            (0..frames).map(|i| t.inject(vec![i as u8; 16])).collect();
        (t.stats(), out)
    }

    #[test]
    fn schedules_replay_bit_identically_from_the_seed() {
        let (stats_a, out_a) = drive(42, 500);
        let (stats_b, out_b) = drive(42, 500);
        assert_eq!(stats_a, stats_b);
        assert_eq!(out_a, out_b);
        let (stats_c, _) = drive(43, 500);
        assert_ne!(stats_a, stats_c, "different seed, different schedule");
    }

    #[test]
    fn moderate_mix_exercises_every_fault_class() {
        let (stats, _) = drive(7, 4000);
        assert!(stats.clean > 0);
        assert!(stats.disconnects > 0);
        assert!(stats.corruptions > 0);
        assert!(stats.truncations > 0);
        assert!(stats.duplicates > 0);
        assert!(stats.reorders > 0);
        assert!(stats.stalls > 0);
    }

    #[test]
    fn quiet_config_passes_everything_through() {
        let mut t = FaultyTransport::new(ChaosConfig::quiet(1));
        for i in 0..100u8 {
            match t.inject(vec![i; 8]) {
                Injected::Write(chunks) => assert_eq!(chunks, vec![vec![i; 8]]),
                other => panic!("quiet transport injected {other:?}"),
            }
        }
        assert_eq!(t.stats().clean, 100);
    }

    #[test]
    fn reordered_frame_is_never_lost() {
        // Drive a reorder-only schedule: every frame swaps with its
        // successor, and the total byte count out equals the bytes in.
        let mut cfg = ChaosConfig::quiet(11);
        cfg.p_reorder = 1.0;
        let mut t = FaultyTransport::new(cfg);
        let mut sent = 0usize;
        for i in 0..10u8 {
            match t.inject(vec![i; 4]) {
                Injected::Write(chunks) => sent += chunks.len(),
                other => panic!("unexpected {other:?}"),
            }
        }
        sent += usize::from(t.take_pocket().is_some());
        assert_eq!(sent, 10, "every offered frame eventually leaves");
    }
}
