//! Best-effort datagram channel for FI synchronization.
//!
//! The paper exchanges foreground interactions over PUN, which rides UDP
//! (§5.1 task 4): small state packets at frame rate, where occasional
//! loss is preferable to head-of-line blocking. This model produces the
//! per-packet latencies and losses the FI path sees on a busy WLAN —
//! seeded, so sessions stay reproducible.

use self::noise_free_rng::DeterministicRng;

/// Outcome of sending one datagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// Delivered after the given one-way latency, ms.
    Delivered {
        /// One-way latency, ms.
        latency_ms: f64,
    },
    /// Dropped by the network.
    Lost,
}

impl Delivery {
    /// The latency if delivered.
    pub fn latency_ms(&self) -> Option<f64> {
        match *self {
            Delivery::Delivered { latency_ms } => Some(latency_ms),
            Delivery::Lost => None,
        }
    }
}

/// A lossy, jittery datagram channel.
#[derive(Debug, Clone, PartialEq)]
pub struct DatagramChannel {
    /// Median one-way latency, ms.
    pub base_latency_ms: f64,
    /// Jitter half-range, ms (latency varies uniformly ±jitter).
    pub jitter_ms: f64,
    /// Independent per-packet loss probability.
    pub loss_rate: f64,
    rng: DeterministicRng,
    sent: u64,
    lost: u64,
}

impl DatagramChannel {
    /// A WLAN FI channel like the paper's testbed: ~1.2 ms one-way with
    /// sub-millisecond jitter and a fraction of a percent loss.
    pub fn wifi_fi(seed: u64) -> Self {
        Self::new(1.2, 0.6, 0.003, seed)
    }

    /// Creates a channel with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]` or latencies are
    /// negative.
    pub fn new(base_latency_ms: f64, jitter_ms: f64, loss_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate must be a probability"
        );
        assert!(
            base_latency_ms >= 0.0 && jitter_ms >= 0.0,
            "latencies must be non-negative"
        );
        DatagramChannel {
            base_latency_ms,
            jitter_ms,
            loss_rate,
            rng: DeterministicRng::new(seed),
            sent: 0,
            lost: 0,
        }
    }

    /// Sends one datagram.
    pub fn send(&mut self) -> Delivery {
        self.sent += 1;
        if self.rng.next_f64() < self.loss_rate {
            self.lost += 1;
            return Delivery::Lost;
        }
        let jitter = (self.rng.next_f64() * 2.0 - 1.0) * self.jitter_ms;
        Delivery::Delivered {
            latency_ms: (self.base_latency_ms + jitter).max(0.0),
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Packets lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Observed loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// A tiny deterministic PRNG kept private to the crate so it has no
/// dependency on the world crate's RNG (also used by the fault layer).
pub(crate) mod noise_free_rng {

    /// xorshift* generator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DeterministicRng {
        state: u64,
    }

    impl DeterministicRng {
        /// Seeds the generator (zero is remapped).
        pub fn new(seed: u64) -> Self {
            DeterministicRng {
                state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_within_jitter_band() {
        let mut ch = DatagramChannel::new(2.0, 0.5, 0.0, 7);
        for _ in 0..1000 {
            let latency_ms = ch.send().latency_ms().expect("lossless channel");
            assert!((1.5..=2.5).contains(&latency_ms), "{latency_ms}");
        }
    }

    #[test]
    fn lossy_mode_returns_error_not_panic() {
        // Certain loss: every send reports the loss as a value.
        let mut ch = DatagramChannel::new(1.0, 0.0, 1.0, 9);
        for _ in 0..50 {
            assert_eq!(ch.send(), Delivery::Lost);
        }
        assert_eq!(ch.lost(), 50);
        assert_eq!(ch.loss_ratio(), 1.0);
    }

    #[test]
    fn lossy_mode_mixes_delivery_and_loss() {
        let mut ch = DatagramChannel::new(2.0, 0.5, 0.3, 21);
        let mut delivered = 0u32;
        let mut lost = 0u32;
        for _ in 0..2000 {
            match ch.send() {
                Delivery::Delivered { latency_ms } => {
                    delivered += 1;
                    assert!((1.5..=2.5).contains(&latency_ms), "{latency_ms}");
                }
                Delivery::Lost => lost += 1,
            }
        }
        assert!(
            delivered > 0 && lost > 0,
            "{delivered} delivered / {lost} lost"
        );
        assert_eq!(u64::from(lost), ch.lost());
        let observed = ch.loss_ratio();
        assert!((0.25..0.35).contains(&observed), "loss {observed}");
    }

    #[test]
    fn loss_rate_converges() {
        let mut ch = DatagramChannel::new(1.0, 0.0, 0.10, 3);
        for _ in 0..20_000 {
            let _ = ch.send();
        }
        let observed = ch.loss_ratio();
        assert!((0.08..0.12).contains(&observed), "loss {observed}");
        assert_eq!(ch.sent(), 20_000);
    }

    #[test]
    fn channel_is_deterministic() {
        let mut a = DatagramChannel::wifi_fi(5);
        let mut b = DatagramChannel::wifi_fi(5);
        for _ in 0..100 {
            assert_eq!(a.send(), b.send());
        }
    }

    #[test]
    fn zero_latency_floor() {
        let mut ch = DatagramChannel::new(0.1, 5.0, 0.0, 2);
        for _ in 0..500 {
            if let Some(l) = ch.send().latency_ms() {
                assert!(l >= 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_rejected() {
        let _ = DatagramChannel::new(1.0, 0.0, 1.5, 1);
    }
}
