//! Foreground-interaction (FI) synchronization model.
//!
//! Multi-Furion and Coterie exchange FI state (pose, rotation, animation)
//! among players through Photon Unity Networking relayed by the server
//! (§3, §5.1 task 4). The paper measures:
//!
//! * 2–3 ms for a client to sync its FI each interval (footnote 1),
//! * FI traffic 2–4 orders of magnitude below BE traffic — ~1 Kbps for a
//!   single player (keep-alives) growing to ~260–275 Kbps at four
//!   players (Table 9).

use coterie_net::FiChannel;
use coterie_world::{ObjectId, ObjectKind, SceneObject, Vec2};

/// Per-interval FI synchronization latency, ms (paper footnote 1:
/// "2-3 ms"). Never the critical path of Eq. 2.
pub const FI_SYNC_LATENCY_MS: f64 = 2.5;

/// Attempts per interval on the lossy FI path (one initial send plus
/// two retries). Worst case the sync task spends
/// `3 * FI_RETRY_TIMEOUT_MS + 0.5 + 1.0 = 9.0 ms` before giving up —
/// bounded well inside the 16.7 ms frame budget, leaving room for the
/// merge step even when sync is the critical path.
pub const FI_RETRY_ATTEMPTS: u32 = 3;

/// Loss-detection timeout charged per failed attempt, ms (the client
/// declares the round trip dead after ~the paper's 2–3 ms sync band).
pub const FI_RETRY_TIMEOUT_MS: f64 = 2.5;

/// Exponential backoff inserted before the 2nd and 3rd attempts, ms.
pub const FI_RETRY_BACKOFF_MS: [f64; 2] = [0.5, 1.0];

/// Dead-reckoning staleness cap, ms. A remote avatar is extrapolated
/// from its last-known pose and velocity for at most this long (six
/// vsync intervals); past the cap extrapolation freezes — so *displayed*
/// staleness never exceeds the cap — and every further stale interval
/// is counted as a consistency violation (the quality penalty).
pub const DEAD_RECKON_CAP_MS: f64 = 100.0;

/// Bytes of one FI state-sync message (pose + rotation + animation
/// state for one object, with PUN framing).
const SYNC_MESSAGE_BYTES: f64 = 46.0;

/// Sync rate in Hz (object sync every frame).
const SYNC_RATE_HZ: f64 = 60.0;

/// The FI synchronization model for one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiSync {
    players: usize,
}

impl FiSync {
    /// Creates the model for an `n`-player session.
    ///
    /// # Panics
    ///
    /// Panics if `players == 0`.
    pub fn new(players: usize) -> Self {
        assert!(players > 0, "sessions need at least one player");
        FiSync { players }
    }

    /// Total server-side FI bandwidth in Kbps (Table 9's FI column):
    /// every player's state is relayed to every other player each frame;
    /// a lone player only exchanges keep-alives.
    pub fn server_kbps(&self) -> f64 {
        if self.players == 1 {
            return 1.0;
        }
        let ordered_pairs = (self.players * (self.players - 1)) as f64;
        ordered_pairs * SYNC_MESSAGE_BYTES * 8.0 * SYNC_RATE_HZ / 1000.0
    }

    /// Per-interval sync latency contribution to Eq. 2, ms.
    pub fn sync_latency_ms(&self) -> f64 {
        if self.players == 1 {
            0.5
        } else {
            FI_SYNC_LATENCY_MS
        }
    }

    /// The avatar objects a player must render for the *other* players
    /// (the FI everyone draws locally). `positions[i]` is player `i`'s
    /// current position; `viewer` is excluded.
    pub fn remote_avatars(&self, positions: &[Vec2], viewer: usize) -> Vec<SceneObject> {
        positions
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != viewer)
            .map(|(i, &p)| SceneObject {
                // High ids keep avatars clear of static scene objects.
                id: ObjectId(u32::MAX - i as u32),
                position: p.with_y(0.0),
                radius: 0.45,
                height: 1.8,
                triangles: 9_000,
                albedo: 0.85,
                kind: ObjectKind::Cylinder,
                texture_seed: 0xFEED ^ i as u64,
            })
            .collect()
    }

    /// Triangles of FI content a player renders each frame (own hands /
    /// car plus remote avatars).
    pub fn fi_triangles(&self) -> u64 {
        let own = 14_000u64;
        own + 9_000 * (self.players as u64 - 1)
    }
}

/// Outcome of one interval's FI sync on the lossy path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiSyncAttempt {
    /// Latency charged to the interval's sync task, ms: retry time plus
    /// the successful round trip, or the full (bounded) retry budget on
    /// exhaustion.
    pub sync_ms: f64,
    /// Retries spent (0 when the first attempt lands).
    pub retries: u32,
    /// Whether fresh state arrived this interval. `false` means the
    /// client falls back to dead reckoning.
    pub synced: bool,
}

/// Runs one interval's state sync over the lossy FI channel with
/// bounded retry and exponential backoff (see [`FI_RETRY_ATTEMPTS`]).
pub fn sync_with_retries(channel: &mut FiChannel, now_ms: f64) -> FiSyncAttempt {
    let mut elapsed = 0.0;
    let mut retries = 0u32;
    for attempt in 0..FI_RETRY_ATTEMPTS {
        if let Some(rtt) = channel.relay_sync_at(now_ms + elapsed) {
            return FiSyncAttempt {
                sync_ms: elapsed + rtt,
                retries,
                synced: true,
            };
        }
        elapsed += FI_RETRY_TIMEOUT_MS;
        if attempt + 1 < FI_RETRY_ATTEMPTS {
            elapsed += FI_RETRY_BACKOFF_MS[attempt as usize];
            retries += 1;
        }
    }
    FiSyncAttempt {
        sync_ms: elapsed,
        retries,
        synced: false,
    }
}

/// Dead-reckons a remote avatar: last-known position extrapolated along
/// the last-known velocity for `staleness_s` seconds. Callers clamp
/// `staleness_s` at [`DEAD_RECKON_CAP_MS`].
pub fn dead_reckon(last_pos: Vec2, velocity: Vec2, staleness_s: f64) -> Vec2 {
    last_pos + velocity * staleness_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_net::NetScenario;

    #[test]
    fn retry_budget_is_bounded_within_frame() {
        // Even total exhaustion must leave room for the merge step.
        let worst = FI_RETRY_ATTEMPTS as f64 * FI_RETRY_TIMEOUT_MS
            + FI_RETRY_BACKOFF_MS.iter().sum::<f64>();
        assert!(worst < 16.7 - 1.0, "retry budget {worst} ms too large");
        // A channel in permanent outage exhausts all attempts at the
        // bounded cost.
        let mut ch = FiChannel::new(NetScenario::RelayOutage, 1);
        let outcome = sync_with_retries(&mut ch, 1_510.0);
        assert!(!outcome.synced);
        assert_eq!(outcome.retries, FI_RETRY_ATTEMPTS - 1);
        assert!((outcome.sync_ms - worst).abs() < 1e-9);
    }

    #[test]
    fn healthy_channel_syncs_first_try_in_paper_band() {
        let mut ch = FiChannel::new(NetScenario::Wifi, 11);
        let mut total = 0.0;
        let mut n = 0;
        for i in 0..500 {
            let o = sync_with_retries(&mut ch, i as f64 * 16.7);
            assert!(o.synced || o.retries > 0);
            if o.synced && o.retries == 0 {
                total += o.sync_ms;
                n += 1;
            }
        }
        assert!(n > 450, "healthy channel mostly syncs first try: {n}");
        let mean = total / n as f64;
        assert!((2.0..3.2).contains(&mean), "mean sync {mean:.2} ms");
    }

    #[test]
    fn dead_reckoning_extrapolates_linearly() {
        let est = dead_reckon(Vec2::new(1.0, 2.0), Vec2::new(2.0, -1.0), 0.5);
        assert!((est.x - 2.0).abs() < 1e-12);
        assert!((est.z - 1.5).abs() < 1e-12);
        // Zero staleness returns the last-known pose untouched.
        let frozen = dead_reckon(Vec2::new(1.0, 2.0), Vec2::new(9.0, 9.0), 0.0);
        assert_eq!(frozen, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn single_player_traffic_is_keepalive() {
        assert_eq!(FiSync::new(1).server_kbps(), 1.0);
    }

    #[test]
    fn traffic_matches_table9_scale() {
        // Table 9: 2P ~52-71 Kbps, 3P ~129-153, 4P ~260-275.
        let two = FiSync::new(2).server_kbps();
        let three = FiSync::new(3).server_kbps();
        let four = FiSync::new(4).server_kbps();
        assert!((35.0..80.0).contains(&two), "2P FI {two:.0} Kbps");
        assert!((100.0..180.0).contains(&three), "3P FI {three:.0} Kbps");
        assert!((220.0..320.0).contains(&four), "4P FI {four:.0} Kbps");
        assert!(two < three && three < four);
    }

    #[test]
    fn fi_traffic_orders_of_magnitude_below_be() {
        // BE traffic is tens of Mbps; FI stays in Kbps (2-4 orders lower).
        let fi_kbps = FiSync::new(4).server_kbps();
        let be_kbps = 42.0 * 1000.0; // smallest Coterie 4P BE value
        assert!(fi_kbps < be_kbps / 50.0);
    }

    #[test]
    fn sync_latency_within_paper_bounds() {
        let s = FiSync::new(3).sync_latency_ms();
        assert!((2.0..=3.0).contains(&s));
        assert!(FiSync::new(1).sync_latency_ms() < s);
    }

    #[test]
    fn remote_avatars_exclude_viewer() {
        let sync = FiSync::new(3);
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(5.0, 0.0),
            Vec2::new(0.0, 5.0),
        ];
        let avatars = sync.remote_avatars(&positions, 1);
        assert_eq!(avatars.len(), 2);
        for a in &avatars {
            assert_ne!(a.position.ground(), positions[1]);
        }
        // Distinct ids per player.
        assert_ne!(avatars[0].id, avatars[1].id);
    }

    #[test]
    fn fi_triangles_stay_under_4ms_budget() {
        // Constraint: FI render time < 4 ms on a Pixel 2 (§4.3).
        let device = coterie_device::DeviceProfile::pixel2();
        for n in 1..=4 {
            let tris = FiSync::new(n).fi_triangles();
            let ms = device.render_ms(tris) - 1.2; // overhead charged once
            assert!(ms < 4.0, "{n} players: FI render {ms:.2} ms");
        }
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = FiSync::new(0);
    }
}
