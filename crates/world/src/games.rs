//! The nine-game catalog of the paper (Table 2 / Table 3).
//!
//! Each [`GameSpec`] mirrors one of the paper's Unity games: same world
//! dimensions and grid-point scale (Table 3), same genre and movement type
//! (Table 2), plus a procedural object-density field whose *character*
//! matches the paper's description — e.g. Viking Village's highly
//! non-uniform density (deep quadtree, 2–28 m cutoffs), DS's dense
//! start/finish areas, Racing Mountain's track-side forest.

use crate::grid::GridSpec;
use crate::noise::{fbm, SmallRng};
use crate::object::{ObjectId, ObjectKind, SceneObject};
use crate::quadtree::Rect;
use crate::scene::{ReachableArea, Scene};
use crate::terrain::Terrain;
use crate::vec::Vec2;
use std::fmt;

/// The nine games studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GameId {
    /// Racing Mountain — racing/chasing, outdoor (evaluated on testbed).
    RacingMountain,
    /// DS — racing/chasing, outdoor.
    Ds,
    /// Viking Village — competing shooting, outdoor (evaluated on testbed).
    VikingVillage,
    /// CTS Procedural World — group adventure/mission, outdoor (testbed).
    Cts,
    /// FPS — competing shooting, outdoor.
    Fps,
    /// Soccer — group adventure/mission, outdoor.
    Soccer,
    /// Pool — static sports, indoor.
    Pool,
    /// Bowling — static sports, indoor.
    Bowling,
    /// Corridor — group adventure, indoor.
    Corridor,
}

impl GameId {
    /// All nine games, outdoor first, as listed in Table 2.
    pub const ALL: [GameId; 9] = [
        GameId::RacingMountain,
        GameId::Ds,
        GameId::VikingVillage,
        GameId::Cts,
        GameId::Fps,
        GameId::Soccer,
        GameId::Pool,
        GameId::Bowling,
        GameId::Corridor,
    ];

    /// The three games used in the end-to-end testbed evaluation (§7).
    pub const TESTBED: [GameId; 3] = [GameId::VikingVillage, GameId::Cts, GameId::RacingMountain];

    /// Short display name as used in the paper's tables.
    pub fn short_name(self) -> &'static str {
        match self {
            GameId::RacingMountain => "Racing",
            GameId::Ds => "DS",
            GameId::VikingVillage => "Viking",
            GameId::Cts => "CTS",
            GameId::Fps => "FPS",
            GameId::Soccer => "Soccer",
            GameId::Pool => "Pool",
            GameId::Bowling => "Bowling",
            GameId::Corridor => "Corridor",
        }
    }
}

impl fmt::Display for GameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Genre of a game (Table 2's "Genre" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GameGenre {
    /// Cars chase each other on a closed track.
    RacingChasing,
    /// Players roam freely and fight.
    CompetingShooting,
    /// A party travels together through the world.
    GroupAdventure,
    /// Players stay near a fixed play area.
    StaticSports,
}

impl GameGenre {
    /// Genre label as printed in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            GameGenre::RacingChasing => "racing/chasing",
            GameGenre::CompetingShooting => "competing shooting",
            GameGenre::GroupAdventure => "group adventure/mission",
            GameGenre::StaticSports => "static sports",
        }
    }
}

/// Density-field shape driving procedural object placement.
#[derive(Debug, Clone, PartialEq)]
enum DensityProfile {
    /// Strong clustered hotspots over a sparse base (Viking).
    Village {
        hotspots: usize,
        hotspot_sigma: f64,
        contrast: f64,
    },
    /// Broad noise-modulated spread (CTS, FPS, Soccer).
    Rolling { contrast: f64 },
    /// Objects concentrated near the track with a few dense pockets
    /// (Racing Mountain's track-side forest, DS's stadium at start/finish).
    TrackSide {
        pocket_count: usize,
        pocket_sigma: f64,
        pocket_weight: f64,
    },
    /// Indoor room: furniture around walls and play area.
    Indoor,
}

/// Full specification of one game's world.
#[derive(Debug, Clone, PartialEq)]
pub struct GameSpec {
    /// Which game.
    pub id: GameId,
    /// Genre per Table 2.
    pub genre: GameGenre,
    /// Foreground-interaction description per Table 2.
    pub fi_description: &'static str,
    /// Indoor or outdoor.
    pub indoor: bool,
    /// World width (x), meters — Table 3 "Game Dimension".
    pub width: f64,
    /// World depth (z), meters.
    pub depth: f64,
    /// Grid spacing in meters (1/32 m for walkable games; coarser for the
    /// large racing worlds where only the track is gridded).
    pub grid_spacing: f64,
    /// Number of objects to place.
    pub object_count: usize,
    /// Mean triangle count per object.
    pub mean_triangles: u32,
    /// Upper bound on FI render time on the reference device, ms (< 4 ms
    /// per §4.3).
    pub fi_render_ms: f64,
    /// Typical player speed, m/s.
    pub player_speed: f64,
    /// Terrain amplitude, m.
    terrain_amplitude: f64,
    /// Density field shape.
    density: DensityProfile,
    /// Track corridor half-width for racing games, if any.
    track_half_width: Option<f64>,
}

impl GameSpec {
    /// The specification for a given game.
    pub fn for_game(id: GameId) -> GameSpec {
        match id {
            GameId::VikingVillage => GameSpec {
                id,
                genre: GameGenre::CompetingShooting,
                fi_description: "roaming and killing enemies",
                indoor: false,
                width: 187.0,
                depth: 130.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 1400,
                mean_triangles: 16_000,
                fi_render_ms: 3.5,
                player_speed: 2.5,
                terrain_amplitude: 5.0,
                density: DensityProfile::Village {
                    hotspots: 10,
                    hotspot_sigma: 11.0,
                    contrast: 24.0,
                },
                track_half_width: None,
            },
            GameId::Cts => GameSpec {
                id,
                genre: GameGenre::GroupAdventure,
                fi_description: "walking and jumping",
                indoor: false,
                width: 512.0,
                depth: 512.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 2600,
                mean_triangles: 14_000,
                fi_render_ms: 3.0,
                player_speed: 2.0,
                terrain_amplitude: 14.0,
                density: DensityProfile::Rolling { contrast: 3.0 },
                track_half_width: None,
            },
            GameId::RacingMountain => GameSpec {
                id,
                genre: GameGenre::RacingChasing,
                fi_description: "racing car movement",
                indoor: false,
                width: 1090.0,
                depth: 1096.0,
                grid_spacing: 0.39,
                object_count: 900,
                mean_triangles: 30_000,
                fi_render_ms: 3.8,
                player_speed: 22.0,
                terrain_amplitude: 35.0,
                density: DensityProfile::TrackSide {
                    pocket_count: 5,
                    pocket_sigma: 45.0,
                    pocket_weight: 16.0,
                },
                track_half_width: Some(9.0),
            },
            GameId::Ds => GameSpec {
                id,
                genre: GameGenre::RacingChasing,
                fi_description: "racing car movement",
                indoor: false,
                width: 1286.0,
                depth: 361.0,
                grid_spacing: 0.39,
                object_count: 700,
                mean_triangles: 30_000,
                fi_render_ms: 3.8,
                player_speed: 25.0,
                terrain_amplitude: 10.0,
                density: DensityProfile::TrackSide {
                    pocket_count: 2,
                    pocket_sigma: 60.0,
                    pocket_weight: 40.0,
                },
                track_half_width: Some(10.0),
            },
            GameId::Fps => GameSpec {
                id,
                genre: GameGenre::CompetingShooting,
                fi_description: "roaming and killing enemies",
                indoor: false,
                width: 71.0,
                depth: 70.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 500,
                mean_triangles: 12_000,
                fi_render_ms: 3.5,
                player_speed: 3.0,
                terrain_amplitude: 1.5,
                density: DensityProfile::Rolling { contrast: 4.0 },
                track_half_width: None,
            },
            GameId::Soccer => GameSpec {
                id,
                genre: GameGenre::GroupAdventure,
                fi_description: "moving and hitting balls",
                indoor: false,
                width: 104.0,
                depth: 140.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 420,
                mean_triangles: 10_000,
                fi_render_ms: 3.2,
                player_speed: 4.0,
                terrain_amplitude: 0.5,
                density: DensityProfile::Rolling { contrast: 2.0 },
                track_half_width: None,
            },
            GameId::Pool => GameSpec {
                id,
                genre: GameGenre::StaticSports,
                fi_description: "walking and hitting balls",
                indoor: true,
                width: 10.0,
                depth: 13.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 110,
                mean_triangles: 14_000,
                fi_render_ms: 2.5,
                player_speed: 1.0,
                terrain_amplitude: 0.0,
                density: DensityProfile::Indoor,
                track_half_width: None,
            },
            GameId::Bowling => GameSpec {
                id,
                genre: GameGenre::StaticSports,
                fi_description: "walking and throwing balls",
                indoor: true,
                width: 34.0,
                depth: 41.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 160,
                mean_triangles: 7000,
                fi_render_ms: 2.5,
                player_speed: 1.2,
                terrain_amplitude: 0.0,
                density: DensityProfile::Indoor,
                track_half_width: None,
            },
            GameId::Corridor => GameSpec {
                id,
                genre: GameGenre::GroupAdventure,
                fi_description: "roaming",
                indoor: true,
                width: 50.0,
                depth: 30.0,
                grid_spacing: 1.0 / 32.0,
                object_count: 220,
                mean_triangles: 8000,
                fi_render_ms: 2.8,
                player_speed: 1.5,
                terrain_amplitude: 0.0,
                density: DensityProfile::Indoor,
                track_half_width: None,
            },
        }
    }

    /// World rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::from_size(self.width, self.depth)
    }

    /// The track centerline for racing games: a closed loop inset from the
    /// world edge with noise wiggle. `None` for non-track games.
    pub fn track_centerline(&self, seed: u64) -> Option<Vec<Vec2>> {
        let half_width = self.track_half_width?;
        let cx = self.width * 0.5;
        let cz = self.depth * 0.5;
        let rx = self.width * 0.5 - half_width * 2.0 - self.width * 0.08;
        let rz = self.depth * 0.5 - half_width * 2.0 - self.depth * 0.08;
        let n = 160;
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let theta = i as f64 / n as f64 * std::f64::consts::TAU;
            // Radial wiggle makes the track non-circular but still closed.
            let wiggle = 0.75
                + 0.25
                    * fbm(
                        seed ^ 0x70,
                        theta.cos() * 2.0 + 7.0,
                        theta.sin() * 2.0 + 3.0,
                        3,
                    );
            pts.push(Vec2::new(
                cx + rx * wiggle * theta.sin(),
                cz + rz * wiggle * theta.cos(),
            ));
        }
        Some(pts)
    }

    /// Evaluates the (unnormalized) object-density field at a position.
    fn density_at(&self, seed: u64, p: Vec2, track: Option<&[Vec2]>) -> f64 {
        let noise = fbm(seed ^ 0xDE_5317, p.x / 23.0, p.z / 23.0, 3);
        match &self.density {
            DensityProfile::Village {
                hotspots,
                hotspot_sigma,
                contrast,
            } => {
                let mut rng = SmallRng::new(seed ^ 0x7077);
                let mut d = 1.0 + 0.8 * noise;
                for _ in 0..*hotspots {
                    let hx = rng.range(self.width * 0.1, self.width * 0.9);
                    let hz = rng.range(self.depth * 0.1, self.depth * 0.9);
                    let dist_sq = p.distance_sq(Vec2::new(hx, hz));
                    d += contrast * (-dist_sq / (2.0 * hotspot_sigma * hotspot_sigma)).exp();
                }
                d
            }
            DensityProfile::Rolling { contrast } => 1.0 + contrast * noise,
            DensityProfile::TrackSide {
                pocket_count,
                pocket_sigma,
                pocket_weight,
            } => {
                let track = track.expect("track games must have a centerline");
                // Base density concentrated near the track corridor.
                let mut nearest = f64::INFINITY;
                for w in track.iter().step_by(4) {
                    nearest = nearest.min(p.distance_sq(*w));
                }
                let _ = nearest;
                // The paper describes these worlds as sparse almost
                // everywhere — "a few regions along the track are very
                // close to a forest of trees while other regions are
                // sparsely populated with few assets" — so the base is a
                // thin uniform scatter and the dense pockets below carry
                // nearly all the geometry.
                let mut d = 0.04 * (0.5 + noise);
                // Dense pockets along the track (stadium / forest).
                let n = track.len();
                let pockets = (*pocket_count).max(1);
                for k in 0..*pocket_count {
                    let anchor = track[(k * n / pockets) % n];
                    let dist_sq = p.distance_sq(anchor);
                    d += pocket_weight * (-dist_sq / (2.0 * pocket_sigma * pocket_sigma)).exp();
                }
                d
            }
            DensityProfile::Indoor => {
                // Furniture hugs the walls; play area in the middle is
                // clearer.
                let margin_x = (p.x.min(self.width - p.x)) / self.width;
                let margin_z = (p.z.min(self.depth - p.z)) / self.depth;
                let wall = 1.0 - margin_x.min(margin_z) * 2.0;
                0.6 + 1.6 * wall.max(0.0) + 0.5 * noise
            }
        }
    }

    /// Builds the procedural scene for this game, deterministically from
    /// `seed`.
    pub fn build_scene(&self, seed: u64) -> Scene {
        let bounds = self.bounds();
        let terrain = if self.terrain_amplitude > 0.0 {
            Terrain::new(
                seed ^ 0x7E44,
                self.terrain_amplitude,
                self.width.max(60.0) / 6.0,
            )
        } else {
            Terrain::flat()
        };
        let track = self.track_centerline(seed);
        let reachable = match (&track, self.track_half_width) {
            (Some(centerline), Some(half_width)) => ReachableArea::Track {
                centerline: centerline.clone(),
                half_width,
            },
            _ => ReachableArea::All,
        };

        // Rejection-sample object positions against the density field.
        let mut rng = SmallRng::new(seed ^ 0x00B7_EC75);
        let mut max_density: f64 = 0.0;
        for _ in 0..400 {
            let p = Vec2::new(rng.range(0.0, self.width), rng.range(0.0, self.depth));
            max_density = max_density.max(self.density_at(seed, p, track.as_deref()));
        }
        max_density = max_density.max(1e-6) * 1.3;

        let mut objects = Vec::with_capacity(self.object_count);
        let mut id = 0u32;
        let mut attempts = 0usize;
        let max_attempts = self.object_count * 400;
        while objects.len() < self.object_count && attempts < max_attempts {
            attempts += 1;
            let p = Vec2::new(rng.range(0.0, self.width), rng.range(0.0, self.depth));
            let d = self.density_at(seed, p, track.as_deref());
            if rng.next_f64() * max_density > d {
                continue;
            }
            // Keep the drivable corridor itself clear for track games.
            if let (Some(centerline), Some(hw)) = (&track, self.track_half_width) {
                let area = ReachableArea::Track {
                    centerline: centerline.clone(),
                    half_width: hw,
                };
                if area.contains(&bounds, p) {
                    continue;
                }
            }
            let size_u = rng.next_f64();
            let kind = match rng.below(3) {
                0 => ObjectKind::Sphere,
                1 => ObjectKind::Cylinder,
                _ => ObjectKind::Box,
            };
            let (radius, height) = match kind {
                ObjectKind::Sphere => {
                    let r = 0.3 + 1.2 * size_u;
                    (r, r * 2.0)
                }
                ObjectKind::Cylinder => (0.3 + 0.9 * size_u, 2.0 + 8.0 * size_u),
                ObjectKind::Box => (0.8 + 3.0 * size_u, 2.0 + 6.0 * size_u),
            };
            let tris = (self.mean_triangles as f64 * (0.3 + 1.6 * size_u * size_u)) as u32;
            objects.push(SceneObject {
                id: ObjectId(id),
                position: terrain.foothold(p),
                radius,
                height,
                triangles: tris.max(50),
                albedo: 0.2 + 0.6 * rng.next_f64(),
                kind,
                texture_seed: seed ^ ((id as u64) << 17),
            });
            id += 1;
        }

        let grid = GridSpec::covering(Vec2::ZERO, self.width, self.depth, self.grid_spacing);
        Scene::new(bounds, terrain, objects, reachable, grid)
    }
}

/// Convenience accessor over all nine game specifications.
#[derive(Debug, Clone)]
pub struct GameCatalog;

impl GameCatalog {
    /// Specs for all nine games in Table 2 order.
    pub fn all() -> Vec<GameSpec> {
        GameId::ALL
            .iter()
            .map(|&id| GameSpec::for_game(id))
            .collect()
    }

    /// Specs for the three testbed games (§7).
    pub fn testbed() -> Vec<GameSpec> {
        GameId::TESTBED
            .iter()
            .map(|&id| GameSpec::for_game(id))
            .collect()
    }

    /// Specs for the six outdoor games.
    pub fn outdoor() -> Vec<GameSpec> {
        Self::all().into_iter().filter(|s| !s.indoor).collect()
    }

    /// Specs for the three indoor games.
    pub fn indoor() -> Vec<GameSpec> {
        Self::all().into_iter().filter(|s| s.indoor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_nine_games() {
        assert_eq!(GameCatalog::all().len(), 9);
        assert_eq!(GameCatalog::outdoor().len(), 6);
        assert_eq!(GameCatalog::indoor().len(), 3);
        assert_eq!(GameCatalog::testbed().len(), 3);
    }

    #[test]
    fn dimensions_match_table3() {
        let viking = GameSpec::for_game(GameId::VikingVillage);
        assert_eq!((viking.width, viking.depth), (187.0, 130.0));
        let cts = GameSpec::for_game(GameId::Cts);
        assert_eq!((cts.width, cts.depth), (512.0, 512.0));
        let racing = GameSpec::for_game(GameId::RacingMountain);
        assert_eq!((racing.width, racing.depth), (1090.0, 1096.0));
        let pool = GameSpec::for_game(GameId::Pool);
        assert_eq!((pool.width, pool.depth), (10.0, 13.0));
    }

    #[test]
    fn grid_points_match_table3_scale() {
        // Table 3: Viking 24.9M, CTS 268.4M, Racing 7.7M, DS 3.0M,
        // Pool 0.13M. Allow +-25% (procedural tracks vary in length).
        let check = |id: GameId, expected_millions: f64| {
            let spec = GameSpec::for_game(id);
            let scene = spec.build_scene(1);
            let points = scene.reachable_grid_points() as f64 / 1e6;
            assert!(
                (points / expected_millions - 1.0).abs() < 0.35,
                "{id}: {points:.2}M grid points, expected ~{expected_millions}M"
            );
        };
        check(GameId::VikingVillage, 24.9);
        check(GameId::Pool, 0.13);
        check(GameId::Corridor, 1.54);
    }

    #[test]
    fn fi_render_time_bounded_by_4ms() {
        for spec in GameCatalog::all() {
            assert!(spec.fi_render_ms < 4.0, "{}: FI > 4ms", spec.id);
        }
    }

    #[test]
    fn build_scene_is_deterministic() {
        let spec = GameSpec::for_game(GameId::Fps);
        let a = spec.build_scene(5);
        let b = spec.build_scene(5);
        assert_eq!(a.objects().len(), b.objects().len());
        assert_eq!(a.objects()[0], b.objects()[0]);
        let c = spec.build_scene(6);
        // Different seed gives different placement.
        assert_ne!(a.objects()[0].position, c.objects()[0].position);
    }

    #[test]
    fn racing_games_have_tracks() {
        for id in [GameId::RacingMountain, GameId::Ds] {
            let spec = GameSpec::for_game(id);
            let track = spec.track_centerline(3).expect("racing game needs track");
            assert!(track.len() >= 32);
            // Track stays in bounds.
            let bounds = spec.bounds();
            for p in &track {
                assert!(bounds.contains(*p), "{id}: track point {p} out of bounds");
            }
        }
        assert!(GameSpec::for_game(GameId::Pool)
            .track_centerline(3)
            .is_none());
    }

    #[test]
    fn track_corridor_is_reachable_and_clear_of_objects() {
        let spec = GameSpec::for_game(GameId::RacingMountain);
        let scene = spec.build_scene(2);
        let track = spec.track_centerline(2).unwrap();
        // Points on the centerline are reachable.
        let mut reachable = 0;
        for p in track.iter().step_by(10) {
            if scene.is_reachable(*p) {
                reachable += 1;
            }
        }
        assert!(
            reachable >= 14,
            "most centerline points reachable: {reachable}"
        );
        // No objects sit inside the corridor.
        for p in track.iter().step_by(10) {
            let blocking = scene
                .objects_within(*p, 2.0)
                .filter(|o| scene.is_reachable(o.position.ground()))
                .count();
            assert_eq!(blocking, 0, "object blocking track at {p}");
        }
    }

    #[test]
    fn viking_density_is_nonuniform() {
        // The paper attributes Viking's deep quadtree to high density
        // variance. Check our field reproduces a large spread.
        let spec = GameSpec::for_game(GameId::VikingVillage);
        let scene = spec.build_scene(7);
        let mut densities = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let p = Vec2::new(
                    spec.width * (i as f64 + 0.5) / 12.0,
                    spec.depth * (j as f64 + 0.5) / 12.0,
                );
                densities.push(scene.triangles_within(p, 8.0) as f64);
            }
        }
        let max = densities.iter().cloned().fold(0.0, f64::max);
        let mean = densities.iter().sum::<f64>() / densities.len() as f64;
        assert!(
            max > mean * 4.0,
            "expected strong hotspots: max={max} mean={mean}"
        );
    }

    #[test]
    fn object_count_reached() {
        for spec in GameCatalog::all() {
            let scene = spec.build_scene(3);
            let placed = scene.objects().len();
            assert!(
                placed as f64 >= spec.object_count as f64 * 0.5,
                "{}: placed {placed} of {}",
                spec.id,
                spec.object_count
            );
        }
    }

    #[test]
    fn genre_labels() {
        assert_eq!(GameGenre::RacingChasing.label(), "racing/chasing");
        assert_eq!(
            GameSpec::for_game(GameId::VikingVillage).genre.label(),
            "competing shooting"
        );
    }
}
