//! Golden-frame regression guard for the renderer hot path.
//!
//! The hashes below were produced by the scalar pre-optimization
//! renderer (per-pixel `sin_cos`/`atan2`/`asin`, no banding) at the
//! default 256×128 options. The optimized trig-table + band renderer
//! must reproduce every panorama byte-for-byte, at any worker count —
//! the determinism claim the band decomposition is built on.
//!
//! Regenerate with:
//! `cargo test -p coterie-render --test golden print_golden_hashes -- --ignored --nocapture`
//!
//! # Paint-order table
//!
//! The 27 hashes above are one eye per game with no FI objects and no
//! equal depths — exactly the cases a change of paint order cannot
//! break. `PAINT_ORDER_GOLDEN` is a second generated table, captured
//! from the scene-order painter (every object painted over a shaded
//! background, in scene order then FI order) before it was replaced:
//! 9 games × 3 eyes (scene centre, beside the object nearest to it, a
//! map corner) × 3 filters through `render_panorama_with`, cycling six
//! FI sets of 0–4 avatars, plus one case per game at a second scene
//! seed. Two of the FI sets hold a pair of overlapping objects at one
//! `f32` distance with different albedo — in one the object painted
//! second is nearer in `f64` — and one puts an FI object on the centre
//! of a scene object, so the depth test's tie rule (the earliest painted
//! wins) is pinned between FI objects and between scene and FI.
//!
//! Regenerate with:
//! `cargo test -p coterie-render --test golden print_paint_order_hashes -- --ignored --nocapture`

use coterie_render::{Panorama, RenderFilter, RenderOptions, Renderer};
use coterie_world::{GameCatalog, GameId, ObjectId, ObjectKind, Scene, SceneObject, Vec2, Vec3};

const SCENE_SEED: u64 = 3;
const CUTOFF: f64 = 10.0;

/// FNV-1a over the frame's f32 bit patterns followed by the mask bytes.
fn pano_hash(p: &Panorama) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    };
    for v in p.frame.data() {
        for b in v.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    for &m in &p.mask {
        eat(m);
    }
    h
}

fn filters() -> [(&'static str, RenderFilter); 3] {
    [
        ("All", RenderFilter::All),
        ("NearOnly", RenderFilter::NearOnly { cutoff: CUTOFF }),
        ("FarOnly", RenderFilter::FarOnly { cutoff: CUTOFF }),
    ]
}

/// `(game, filter, hash)` captured from the pre-refactor scalar renderer.
const GOLDEN: &[(GameId, &str, u64)] = &[
    // GENERATED — do not edit by hand; see module docs.
    (GameId::RacingMountain, "All", 0xf45cc34594db6661),
    (GameId::RacingMountain, "NearOnly", 0x4a0aac9299030a8f),
    (GameId::RacingMountain, "FarOnly", 0x6eeae70730c80bdf),
    (GameId::Ds, "All", 0xa7bf866be01902be),
    (GameId::Ds, "NearOnly", 0x45c4b713e29d3cb4),
    (GameId::Ds, "FarOnly", 0x8c17273fd0a4510e),
    (GameId::VikingVillage, "All", 0x40bb6478764b42bc),
    (GameId::VikingVillage, "NearOnly", 0xf6a34fee02df0bbd),
    (GameId::VikingVillage, "FarOnly", 0xfa5471060fe09e85),
    (GameId::Cts, "All", 0xaf799805eedba03c),
    (GameId::Cts, "NearOnly", 0x3fe8d5ad374eedcc),
    (GameId::Cts, "FarOnly", 0x51c7277835b5f781),
    (GameId::Fps, "All", 0x684f67b12845e021),
    (GameId::Fps, "NearOnly", 0x8ee53c901564ae0b),
    (GameId::Fps, "FarOnly", 0xde1d53ffc5ce4d4b),
    (GameId::Soccer, "All", 0x5ea7b8a807d21192),
    (GameId::Soccer, "NearOnly", 0x6dc1e54f5df95da9),
    (GameId::Soccer, "FarOnly", 0x89e311bce5fbd88d),
    (GameId::Pool, "All", 0x92bb2428c9898d19),
    (GameId::Pool, "NearOnly", 0x2beb46f444076a72),
    (GameId::Pool, "FarOnly", 0x4b936d3914300831),
    (GameId::Bowling, "All", 0x8b49836185f56322),
    (GameId::Bowling, "NearOnly", 0xa42dff96439d6b37),
    (GameId::Bowling, "FarOnly", 0x4e4597a36fd10ee6),
    (GameId::Corridor, "All", 0x8acf63a590f620e9),
    (GameId::Corridor, "NearOnly", 0x7c8c49d651c4b77c),
    (GameId::Corridor, "FarOnly", 0x5c90ce89f66c980f),
];

#[test]
#[ignore = "generator: prints the GOLDEN table for this file"]
fn print_golden_hashes() {
    let renderer = Renderer::new(RenderOptions::default());
    for spec in GameCatalog::all() {
        let scene = spec.build_scene(SCENE_SEED);
        let eye = scene.eye(scene.bounds().center());
        for (name, filter) in filters() {
            let hash = pano_hash(&renderer.render_panorama(&scene, eye, filter));
            println!("    (GameId::{:?}, \"{name}\", 0x{hash:016x}),", spec.id);
        }
    }
}

#[test]
fn optimized_renderer_matches_scalar_golden_hashes() {
    for &workers in &[1usize, 2, 8] {
        let renderer = Renderer::new(RenderOptions::default()).with_workers(workers);
        for spec in GameCatalog::all() {
            let scene = spec.build_scene(SCENE_SEED);
            let eye = scene.eye(scene.bounds().center());
            for (name, filter) in filters() {
                let pano = renderer.render_panorama(&scene, eye, filter);
                let hash = pano_hash(&pano);
                let expected = GOLDEN
                    .iter()
                    .find(|(g, f, _)| *g == spec.id && *f == name)
                    .map(|(_, _, h)| *h)
                    .unwrap_or_else(|| panic!("no golden entry for {:?}/{name}", spec.id));
                assert_eq!(
                    hash, expected,
                    "{:?}/{name} diverged from the scalar renderer at {workers} workers",
                    spec.id
                );
            }
        }
    }
}

/// Scene seed of the table's extra case per game.
const SECOND_SEED: u64 = 11;

/// The FI sets the paint-order table cycles through (see `fi_set`).
const FI_SETS: [&str; 6] = ["none", "one", "twins", "crowd", "near-twins", "on-object"];

fn avatar(
    scene: &Scene,
    n: u32,
    at: Vec2,
    kind: ObjectKind,
    radius: f64,
    albedo: f64,
) -> SceneObject {
    SceneObject {
        id: ObjectId(u32::MAX - n),
        position: scene.terrain().foothold(at),
        radius,
        height: 1.8,
        triangles: 5000,
        albedo,
        kind,
        texture_seed: 0xF1 + n as u64,
    }
}

/// The `f32` the renderer's depth test compares for `obj`.
fn depth_key(obj: &SceneObject, eye: Vec3) -> f32 {
    obj.angular_extent(eye)
        .expect("object off the eye")
        .distance as f32
}

/// The FI objects of one named set, placed around `eye`. `nearest` is
/// the scene object the "on-object" set sits on.
fn fi_set(name: &str, scene: &Scene, eye: Vec3, nearest: &SceneObject) -> Vec<SceneObject> {
    use ObjectKind::{Box, Cylinder, Sphere};
    let at = |dx: f64, dz: f64| eye.ground() + Vec2::new(dx, dz);
    match name {
        "none" => vec![],
        "one" => vec![avatar(scene, 0, at(2.0, 2.0), Cylinder, 0.5, 0.95)],
        // One centre, so one distance to the last bit: a narrow dark box
        // painted first, a wide bright cylinder second. The tie keeps the
        // box visible inside the cylinder.
        "twins" => {
            let a = avatar(scene, 0, at(1.5, -2.0), Box, 0.3, 0.15);
            let b = avatar(scene, 1, at(1.5, -2.0), Cylinder, 0.6, 0.95);
            assert_eq!(depth_key(&a, eye), depth_key(&b, eye));
            vec![a, b]
        }
        // As "twins", but the cylinder stands a nanometre nearer: less
        // in f64, equal in the f32 the depth test compares, so the box
        // must still win the overlap.
        "near-twins" => {
            let a = avatar(scene, 0, at(-2.5, 1.0), Box, 0.3, 0.15);
            let mut b = SceneObject {
                kind: Cylinder,
                radius: 0.6,
                albedo: 0.95,
                ..a.clone()
            };
            b.position.x += 1e-9;
            let (da, db) = (
                a.angular_extent(eye).expect("extent").distance,
                b.angular_extent(eye).expect("extent").distance,
            );
            assert!(db < da, "second twin must be nearer in f64");
            assert_eq!(da as f32, db as f32, "twins must share one f32 distance");
            vec![a, b]
        }
        // Four overlapping avatars along one azimuth, far to near, so
        // scene order paints the winner last.
        "crowd" => vec![
            avatar(scene, 0, at(-0.3, 8.0), Box, 1.2, 0.6),
            avatar(scene, 1, at(0.2, 5.0), Sphere, 0.9, 0.3),
            avatar(scene, 2, at(0.0, 3.0), Cylinder, 0.5, 0.9),
            avatar(scene, 3, at(0.1, 1.5), Cylinder, 0.3, 0.2),
        ],
        // An FI cylinder around the centre of a scene object: where both
        // are hit the scene object, painted first, keeps the pixel.
        "on-object" => {
            let halo = SceneObject {
                id: ObjectId(u32::MAX),
                radius: nearest.radius * 1.5 + 0.2,
                albedo: 1.0 - nearest.albedo,
                kind: Cylinder,
                texture_seed: 0xF9,
                ..nearest.clone()
            };
            assert_eq!(depth_key(&halo, eye), depth_key(nearest, eye));
            vec![halo, avatar(scene, 1, at(2.0, 2.0), Cylinder, 0.5, 0.95)]
        }
        other => panic!("unknown FI set {other}"),
    }
}

/// One row of the paint-order table: what to render and its label.
struct PaintOrderCase {
    label: String,
    /// Index into the scene list returned beside the cases.
    scene: usize,
    eye: Vec3,
    filter: RenderFilter,
    fi: Vec<SceneObject>,
}

/// The table's cases in generation order, and the scenes they index.
fn paint_order_cases() -> (Vec<Scene>, Vec<PaintOrderCase>) {
    let mut scenes = Vec::new();
    let mut cases = Vec::new();
    for (seed, all_eyes) in [(SCENE_SEED, true), (SECOND_SEED, false)] {
        for (g, spec) in GameCatalog::all().into_iter().enumerate() {
            let scene = spec.build_scene(seed);
            let bounds = scene.bounds();
            let centre = bounds.center();
            let nearest = scene
                .objects()
                .iter()
                .min_by(|a, b| {
                    let da = a.position.ground().distance(centre);
                    let db = b.position.ground().distance(centre);
                    da.total_cmp(&db)
                })
                .expect("every game has objects")
                .clone();
            let beside = nearest.position.ground() + Vec2::new(nearest.radius + 0.75, 0.0);
            let eyes = [
                ("centre", centre),
                ("beside", beside),
                ("corner", bounds.min + Vec2::new(1.5, 1.5)),
            ];
            for (e, (eye_name, pos)) in eyes.into_iter().enumerate() {
                // The second seed contributes one case per game: beside
                // the nearest object, filter and FI set varying by game.
                if !all_eyes && eye_name != "beside" {
                    continue;
                }
                let eye = scene.eye(pos);
                for (f, (filter_name, filter)) in filters().into_iter().enumerate() {
                    if !all_eyes && f != g % 3 {
                        continue;
                    }
                    // Every filter meets every FI set as games and eyes go by.
                    let fi_name = FI_SETS[(g * 3 + e + 2 * f) % FI_SETS.len()];
                    cases.push(PaintOrderCase {
                        label: format!("{:?}/{seed}/{eye_name}/{filter_name}/{fi_name}", spec.id),
                        scene: scenes.len(),
                        eye,
                        filter,
                        fi: fi_set(fi_name, &scene, eye, &nearest),
                    });
                }
            }
            scenes.push(scene);
        }
    }
    (scenes, cases)
}

/// `(case label, hash)` captured from the scene-order painter.
const PAINT_ORDER_GOLDEN: &[(&str, u64)] = &[
    // GENERATED — do not edit by hand; see module docs.
    ("RacingMountain/3/centre/All/none", 0xf45cc34594db6661),
    ("RacingMountain/3/centre/NearOnly/twins", 0x579d2481716a2283),
    (
        "RacingMountain/3/centre/FarOnly/near-twins",
        0x2601183a08b0ff75,
    ),
    ("RacingMountain/3/beside/All/one", 0x96aff1528f814524),
    ("RacingMountain/3/beside/NearOnly/crowd", 0x778c6ddb733254d6),
    (
        "RacingMountain/3/beside/FarOnly/on-object",
        0xe019b0d93fa5b774,
    ),
    ("RacingMountain/3/corner/All/twins", 0x49abf782784099fc),
    (
        "RacingMountain/3/corner/NearOnly/near-twins",
        0x8a60a075c6c22d77,
    ),
    ("RacingMountain/3/corner/FarOnly/none", 0x78fcb49dbf99b139),
    ("Ds/3/centre/All/crowd", 0x4219654dd8bce0eb),
    ("Ds/3/centre/NearOnly/on-object", 0x97186cccac922673),
    ("Ds/3/centre/FarOnly/one", 0xade47dfabcfcee2d),
    ("Ds/3/beside/All/near-twins", 0x596f0f7ca670b099),
    ("Ds/3/beside/NearOnly/none", 0xe20c2956d20b43b5),
    ("Ds/3/beside/FarOnly/twins", 0x64d435a7aff7c1d0),
    ("Ds/3/corner/All/on-object", 0x80f24b10c3bc9d71),
    ("Ds/3/corner/NearOnly/one", 0xd7f2c7eedb021985),
    ("Ds/3/corner/FarOnly/crowd", 0x78444e01698be64d),
    ("VikingVillage/3/centre/All/none", 0x40bb6478764b42bc),
    ("VikingVillage/3/centre/NearOnly/twins", 0x82376c0813a99233),
    (
        "VikingVillage/3/centre/FarOnly/near-twins",
        0xc4d0633196886703,
    ),
    ("VikingVillage/3/beside/All/one", 0x10c7412944e8d7f0),
    ("VikingVillage/3/beside/NearOnly/crowd", 0xb6bda5f1d00b74de),
    (
        "VikingVillage/3/beside/FarOnly/on-object",
        0xebbc04e5740f0c1d,
    ),
    ("VikingVillage/3/corner/All/twins", 0x5063876ef9ee0801),
    (
        "VikingVillage/3/corner/NearOnly/near-twins",
        0xc9f25abaafc2d32f,
    ),
    ("VikingVillage/3/corner/FarOnly/none", 0x0b71c2fd85728b63),
    ("Cts/3/centre/All/crowd", 0x0bd68af9b0865895),
    ("Cts/3/centre/NearOnly/on-object", 0xf869991831b34713),
    ("Cts/3/centre/FarOnly/one", 0x2a6f0e3da67e028c),
    ("Cts/3/beside/All/near-twins", 0x9edbbd3211ca97e5),
    ("Cts/3/beside/NearOnly/none", 0x6456ad8771e6460a),
    ("Cts/3/beside/FarOnly/twins", 0x9f8aef2cc33e1c71),
    ("Cts/3/corner/All/on-object", 0x9b85eef2c1869d70),
    ("Cts/3/corner/NearOnly/one", 0xede50516d29287b3),
    ("Cts/3/corner/FarOnly/crowd", 0xd9794f2db3c71900),
    ("Fps/3/centre/All/none", 0x684f67b12845e021),
    ("Fps/3/centre/NearOnly/twins", 0x8ee53c901564ae0b),
    ("Fps/3/centre/FarOnly/near-twins", 0x2abfcb625b1e5073),
    ("Fps/3/beside/All/one", 0xbc310e05930b5633),
    ("Fps/3/beside/NearOnly/crowd", 0x2fc27ad84593836a),
    ("Fps/3/beside/FarOnly/on-object", 0x4c4f42d07c26487c),
    ("Fps/3/corner/All/twins", 0x09ab9f386a88790e),
    ("Fps/3/corner/NearOnly/near-twins", 0xa8b1f593cfdd7e78),
    ("Fps/3/corner/FarOnly/none", 0xd51060b6124e4542),
    ("Soccer/3/centre/All/crowd", 0x8a9f857e22e40a6b),
    ("Soccer/3/centre/NearOnly/on-object", 0x3d421004d9981c67),
    ("Soccer/3/centre/FarOnly/one", 0x8483ed0e78dae184),
    ("Soccer/3/beside/All/near-twins", 0x675d29fb6437ed08),
    ("Soccer/3/beside/NearOnly/none", 0xdf1cf916f03284c0),
    ("Soccer/3/beside/FarOnly/twins", 0x76bd462ef81fb7f8),
    ("Soccer/3/corner/All/on-object", 0xab7213b5b7de7c7b),
    ("Soccer/3/corner/NearOnly/one", 0x7764c3cc6e8d0683),
    ("Soccer/3/corner/FarOnly/crowd", 0x07cebc4e7af7ecdb),
    ("Pool/3/centre/All/none", 0x92bb2428c9898d19),
    ("Pool/3/centre/NearOnly/twins", 0x2beb46f444076a72),
    ("Pool/3/centre/FarOnly/near-twins", 0xee63a7f98c9ba95f),
    ("Pool/3/beside/All/one", 0xc5b8780378fa5270),
    ("Pool/3/beside/NearOnly/crowd", 0xea5e1eb95bebc0dd),
    ("Pool/3/beside/FarOnly/on-object", 0x8bb68e85df9bfb15),
    ("Pool/3/corner/All/twins", 0x0932259a8133edeb),
    ("Pool/3/corner/NearOnly/near-twins", 0x46c5d86ac8758c9c),
    ("Pool/3/corner/FarOnly/none", 0x10517c2a62e2108a),
    ("Bowling/3/centre/All/crowd", 0x0f90520841891852),
    ("Bowling/3/centre/NearOnly/on-object", 0x481e424b848af92e),
    ("Bowling/3/centre/FarOnly/one", 0xd09356e13bd47dd2),
    ("Bowling/3/beside/All/near-twins", 0x8af731d6f4ec34d8),
    ("Bowling/3/beside/NearOnly/none", 0xad0e1a7d5117aa12),
    ("Bowling/3/beside/FarOnly/twins", 0xa832d218bbc66759),
    ("Bowling/3/corner/All/on-object", 0x2bbda55fc24d7943),
    ("Bowling/3/corner/NearOnly/one", 0xcc885d3ed4ce0b16),
    ("Bowling/3/corner/FarOnly/crowd", 0xd326e32c1b7173f1),
    ("Corridor/3/centre/All/none", 0x8acf63a590f620e9),
    ("Corridor/3/centre/NearOnly/twins", 0x4b60a3d14606bd92),
    ("Corridor/3/centre/FarOnly/near-twins", 0x9c1da6e36693fc9f),
    ("Corridor/3/beside/All/one", 0xc45e915354d0c7fe),
    ("Corridor/3/beside/NearOnly/crowd", 0xbe7d112aa8aa01ed),
    ("Corridor/3/beside/FarOnly/on-object", 0x70cdd66cee6de27e),
    ("Corridor/3/corner/All/twins", 0x8a41521c18e2704f),
    ("Corridor/3/corner/NearOnly/near-twins", 0x3bb5228a27956107),
    ("Corridor/3/corner/FarOnly/none", 0x3c5f2446c78438fa),
    ("RacingMountain/11/beside/All/one", 0x6cb1fb620e2f5d23),
    ("Ds/11/beside/NearOnly/none", 0xa4cbe5874444b939),
    (
        "VikingVillage/11/beside/FarOnly/on-object",
        0x288da5f28aa4f75c,
    ),
    ("Cts/11/beside/All/near-twins", 0x906e88c811800998),
    ("Fps/11/beside/NearOnly/crowd", 0x04b83c6149fe709c),
    ("Soccer/11/beside/FarOnly/twins", 0x652b74f1ceafa475),
    ("Pool/11/beside/All/one", 0x258c34d27cacdcf9),
    ("Bowling/11/beside/NearOnly/none", 0x8ecfd8b8494d6d25),
    ("Corridor/11/beside/FarOnly/on-object", 0x46c80636a02b5042),
];

#[test]
#[ignore = "generator: prints the PAINT_ORDER_GOLDEN table for this file"]
fn print_paint_order_hashes() {
    let renderer = Renderer::new(RenderOptions::default());
    let (scenes, cases) = paint_order_cases();
    for case in &cases {
        let pano =
            renderer.render_panorama_with(&scenes[case.scene], case.eye, case.filter, &case.fi);
        println!("    (\"{}\", 0x{:016x}),", case.label, pano_hash(&pano));
    }
}

#[test]
fn paint_order_matches_scene_order_golden_hashes() {
    let (scenes, cases) = paint_order_cases();
    assert_eq!(cases.len(), PAINT_ORDER_GOLDEN.len());
    assert!(cases.len() >= 64);
    for &workers in &[1usize, 2, 8] {
        let renderer = Renderer::new(RenderOptions::default()).with_workers(workers);
        for (case, (label, expected)) in cases.iter().zip(PAINT_ORDER_GOLDEN) {
            assert_eq!(case.label, *label, "table out of step with the generator");
            let pano =
                renderer.render_panorama_with(&scenes[case.scene], case.eye, case.filter, &case.fi);
            assert_eq!(
                pano_hash(&pano),
                *expected,
                "{label} diverged from the scene-order painter at {workers} workers"
            );
        }
    }
}
