//! Property-based tests for world geometry, grids and quadtrees.

use coterie_parallel::simd;
use coterie_world::quadtree::Partition;
use coterie_world::{GridSpec, Quadtree, Rect, Terrain, Vec2, Vec3};
use proptest::prelude::*;

/// One coordinate of a ground-row point for `lambert_row_matches_terrain_normal`:
/// `kind` picks the family, `a` in `[-1, 1)` places the point within it
/// and `prev` is the row's previous coordinate, for the coherent walk a
/// renderer row makes.
fn row_coordinate(kind: u8, a: f64, prev: f64, wavelength: f64) -> f64 {
    // A lattice line of one of the four octaves (exact when the
    // wavelength is a power of two, a few ulp off otherwise).
    let line = (a * 40.0).round() * wavelength / f64::from(1u32 << (kind % 4));
    let two53 = 9_007_199_254_740_992.0;
    match kind {
        0..=7 => prev + a * 0.2,
        8 => prev + a * wavelength,
        9 => a * 400.0,
        10 => line,
        11 => line.next_up(),
        12 => line.next_down(),
        13 => a * 1e6 - 1e6,
        14 => a.signum() * two53 * (1.0 + a.abs() * 8.0),
        15 => a * 1e300,
        16 => f64::NAN,
        _ => a.signum() * f64::INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grid_snap_is_idempotent(
        ox in -100.0f64..100.0, oz in -100.0f64..100.0,
        spacing in 0.01f64..2.0,
        px in -50.0f64..150.0, pz in -50.0f64..150.0,
    ) {
        let spec = GridSpec::new(Vec2::new(ox, oz), spacing, 200, 200);
        let gp = spec.snap(Vec2::new(px, pz));
        prop_assert!(spec.contains(gp));
        // Snapping the snapped position is a fixed point.
        prop_assert_eq!(spec.snap(spec.position(gp)), gp);
    }

    #[test]
    fn grid_snap_minimizes_distance(
        spacing in 0.05f64..1.0,
        fx in 0.0f64..1.0, fz in 0.0f64..1.0,
    ) {
        let spec = GridSpec::new(Vec2::ZERO, spacing, 1000, 1000);
        // Stay inside the lattice extent so clamping never applies.
        let extent = spacing * 999.0;
        let p = Vec2::new(fx * extent, fz * extent);
        let gp = spec.snap(p);
        let d = spec.position(gp).distance(p);
        // Nearest lattice point is at most half a diagonal away.
        prop_assert!(d <= spacing * std::f64::consts::SQRT_2 / 2.0 + 1e-9);
    }

    #[test]
    fn neighbors8_are_symmetric(ix in -1000i32..1000, iz in -1000i32..1000) {
        let gp = coterie_world::GridPoint::new(ix, iz);
        for n in gp.neighbors8() {
            prop_assert!(n.neighbors8().contains(&gp), "{gp} <-> {n}");
        }
    }

    #[test]
    fn quadtree_locate_always_contains_point(
        split_mask in 0u32..4096,
        px in 0.0f64..64.0, pz in 0.0f64..64.0,
    ) {
        // Irregular tree: split pattern driven by the mask bits.
        let mut counter = 0u32;
        let qt = Quadtree::build(Rect::from_size(64.0, 64.0), 4, &mut |_r, depth| {
            counter = counter.wrapping_add(1);
            if depth < 3 && (split_mask >> (counter % 12)) & 1 == 1 {
                Partition::Split
            } else {
                Partition::Stop(depth)
            }
        });
        let p = Vec2::new(px.min(63.999), pz.min(63.999));
        let leaf = qt.locate(p).expect("interior point must resolve");
        prop_assert!(leaf.rect.contains(p), "{p} not inside {}", leaf.rect);
    }

    #[test]
    fn quadtree_leaves_tile_root(split_mask in 0u32..4096) {
        let mut counter = 0u32;
        let qt = Quadtree::build(Rect::from_size(32.0, 32.0), 4, &mut |_r, depth| {
            counter = counter.wrapping_add(1);
            if depth < 3 && (split_mask >> (counter % 12)) & 1 == 1 {
                Partition::Split
            } else {
                Partition::Stop(())
            }
        });
        let area: f64 = qt.leaves().iter().map(|l| l.rect.area()).sum();
        prop_assert!((area - 32.0 * 32.0).abs() < 1e-6);
        // Leaf count is consistent with a quadtree (1 mod 3).
        prop_assert_eq!(qt.leaves().len() % 3, 1);
    }

    #[test]
    fn lambert_row_matches_terrain_normal(
        seed in 0u64..u64::MAX,
        amplitude in -8.0f64..24.0,
        wavelength_exp in -3.0f64..1.9,
        power_of_two in proptest::bool::ANY,
        downward_light in proptest::bool::ANY,
        rows in proptest::collection::vec(
            proptest::collection::vec((0u8..18, -1.0f64..1.0, 0u8..18, -1.0f64..1.0), 0..=70),
            1..6,
        ),
    ) {
        // A quarter of the terrains are flat; wavelengths span 1e-3 to 80.
        let wavelength = if power_of_two {
            2f64.powi((wavelength_exp * 3.0) as i32)
        } else {
            10f64.powf(wavelength_exp)
        };
        let terrain = Terrain::new(seed, amplitude.max(0.0), wavelength);
        let light = if downward_light {
            Vec3::new(0.3, -0.9, 0.1).normalized()
        } else {
            Vec3::new(0.35, 0.85, 0.40).normalized()
        };
        // One sampler across every row, its albedo memos in use between them.
        let mut sampler = terrain.sampler();
        let mut prev = Vec2::new(12.5, -3.25);
        for row in rows {
            let points: Vec<Vec2> = row
                .into_iter()
                .map(|(kx, ax, kz, az)| {
                    let p = Vec2::new(
                        row_coordinate(kx, ax, prev.x, wavelength),
                        row_coordinate(kz, az, prev.z, wavelength),
                    );
                    if p.x.is_finite() && p.z.is_finite() && p.length() < 1e4 {
                        prev = p;
                    }
                    p
                })
                .collect();
            let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
            let zs: Vec<f64> = points.iter().map(|p| p.z).collect();
            // Every SIMD level, each carrying the memos the last one left.
            let mut by_level = Vec::new();
            for level in simd::available_levels() {
                let mut got = vec![f64::NAN; points.len()];
                sampler.lambert_row_with_simd(&xs, &zs, light, &mut got, level);
                let mut albedo = vec![f64::NAN; points.len()];
                sampler.albedo_row(&xs, &zs, &mut albedo, level);
                by_level.push((got, albedo));
            }
            for (i, p) in points.iter().enumerate() {
                let want = terrain.normal(*p).dot(light).max(0.0);
                // A NaN's sign and payload are not pinned down by the
                // language, so NaN albedos compare as NaN, the rest by bits.
                let reference = terrain.albedo(*p);
                let same = |a: f64| a.to_bits() == reference.to_bits() || (a.is_nan() && reference.is_nan());
                for (got, albedo) in by_level.iter().map(|(l, a)| (l[i], a[i])) {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "lambert {} vs {} at {:?}", got, want, p);
                    prop_assert!(same(albedo), "albedo row {} vs {} at {:?}", albedo, reference, p);
                }
                let albedo = sampler.albedo(*p);
                prop_assert!(same(albedo), "albedo {} vs {} at {:?}", albedo, reference, p);
            }
        }
    }

    #[test]
    fn rect_quadrants_partition_points(
        w in 1.0f64..100.0, d in 1.0f64..100.0,
        fx in 0.0f64..1.0, fz in 0.0f64..1.0,
    ) {
        let r = Rect::from_size(w, d);
        let p = r.sample(fx.min(0.9999), fz.min(0.9999));
        let owners = r.quadrants().iter().filter(|q| q.contains(p)).count();
        prop_assert_eq!(owners, 1, "point {} owned by {} quadrants", p, owners);
    }

    #[test]
    fn vec2_rotation_preserves_length(x in -100.0f64..100.0, z in -100.0f64..100.0, angle in -7.0f64..7.0) {
        let v = Vec2::new(x, z);
        let r = v.rotated(angle);
        prop_assert!((v.length() - r.length()).abs() < 1e-9 * (1.0 + v.length()));
    }

    #[test]
    fn vec2_triangle_inequality(ax in -50.0f64..50.0, az in -50.0f64..50.0, bx in -50.0f64..50.0, bz in -50.0f64..50.0, cx in -50.0f64..50.0, cz in -50.0f64..50.0) {
        let a = Vec2::new(ax, az);
        let b = Vec2::new(bx, bz);
        let c = Vec2::new(cx, cz);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }
}
