//! Criterion micro-benchmarks for the performance-critical substrates:
//! SSIM, the codec, the panoramic renderer, terrain slope shading and FoV
//! crop, frame-cache and fleet-store operations (including eviction
//! against store size), the cutoff solver, the serving core's miss path
//! and a server connection working off a backlog.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

use coterie_codec::{Encoder, Quality};
use coterie_core::cutoff::{max_cutoff_radius, CutoffConfig};
use coterie_core::{CacheConfig, CacheQuery, CacheVersion, FrameCache, FrameMeta, FrameSource};
use coterie_device::DeviceProfile;
use coterie_frame::{ssim, ssim_with_simd, LumaFrame, SsimOptions};
use coterie_net::wire::{frame_header, WireMessage, FRAME_HEADER_BYTES};
use coterie_parallel::simd;
use coterie_render::{FovOptions, RenderFilter, RenderOptions, Renderer};
use coterie_serve::{FrameStore, LocalStore, StoreConfig};
use coterie_server::{Connection, ReadOutcome, ServiceCore, Stream};
use coterie_telemetry::{Stage, TelemetryConfig, TelemetrySink, TrackId};
use coterie_world::{GameId, GameSpec, GridPoint, LeafId, Terrain, Vec2, Vec3};

fn bench_ssim(c: &mut Criterion) {
    let a = LumaFrame::from_fn(192, 96, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let mut b = a.clone();
    b.set(50, 50, 1.0);
    c.bench_function("ssim_192x96", |bench| {
        bench.iter(|| ssim(black_box(&a), black_box(&b)))
    });
    // Default options at the renderer's default resolution — the exact
    // configuration the simulator's similarity sweeps run.
    let a = LumaFrame::from_fn(256, 128, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let mut b = a.clone();
    b.set(70, 70, 1.0);
    c.bench_function("ssim_default_256x128", |bench| {
        bench.iter(|| ssim(black_box(&a), black_box(&b)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let frame = LumaFrame::from_fn(192, 96, |x, y| ((x * 3 + y * 5) % 31) as f32 / 30.0);
    let enc = Encoder::new(Quality::CRF25);
    let encoded = enc.encode(&frame);
    c.bench_function("codec_encode_192x96", |bench| {
        bench.iter(|| enc.encode(black_box(&frame)))
    });
    c.bench_function("codec_decode_192x96", |bench| {
        bench.iter(|| enc.decode(black_box(&encoded)).expect("decodes"))
    });
    // The socket plane's far frame at full scale: a smooth rank-2 field
    // of the serving core's shape, whose blocks carry a handful of
    // nonzero coefficients each.
    let (p1, p2) = (0.31f32, 0.77f32);
    let served = LumaFrame::from_fn(128, 64, |x, y| {
        let (fx, fy) = (x as f32 / 128.0, y as f32 / 64.0);
        let a = (fx * 7.0 + p1 * 6.0).sin() * (fy * 5.0 - p2 * 4.0).cos();
        let c = (fx * 23.0 - p2 * 11.0).cos() * (fy * 17.0 + p1 * 9.0).sin();
        (0.5 + 0.28 * a + 0.12 * c).clamp(0.0, 1.0)
    });
    c.bench_function("codec_encode_128x64_served", |bench| {
        bench.iter(|| enc.encode(black_box(&served)))
    });
}

fn bench_render(c: &mut Criterion) {
    let spec = GameSpec::for_game(GameId::VikingVillage);
    let scene = spec.build_scene(7);
    let renderer = Renderer::new(RenderOptions::fast());
    let eye = scene.eye(scene.bounds().center());
    c.bench_function("render_whole_pano", |bench| {
        bench.iter(|| renderer.render_panorama(black_box(&scene), eye, RenderFilter::All))
    });
    c.bench_function("render_far_pano", |bench| {
        bench.iter(|| {
            renderer.render_panorama(
                black_box(&scene),
                eye,
                RenderFilter::FarOnly { cutoff: 8.0 },
            )
        })
    });
    // Per-filter benches at the default 256x128 resolution — the hot-path
    // configuration the experiments measure.
    let renderer = Renderer::new(RenderOptions::default());
    let cutoff = 10.0;
    c.bench_function("render_all_256x128", |bench| {
        bench.iter(|| renderer.render_panorama(black_box(&scene), eye, RenderFilter::All))
    });
    c.bench_function("render_near_256x128", |bench| {
        bench.iter(|| {
            renderer.render_panorama(black_box(&scene), eye, RenderFilter::NearOnly { cutoff })
        })
    });
    c.bench_function("render_far_256x128", |bench| {
        bench.iter(|| {
            renderer.render_panorama(black_box(&scene), eye, RenderFilter::FarOnly { cutoff })
        })
    });
    // The crop every displayed frame pays, level (what the benchmark's
    // `frame_pipeline` passes) and pitched (what a headset does).
    let pano = renderer
        .render_panorama(&scene, eye, RenderFilter::All)
        .frame;
    let fov = FovOptions::default();
    for (name, pitch) in [("level", 0.0), ("pitched", 0.4)] {
        c.bench_function(&format!("fov_crop_160x90/{name}"), |bench| {
            bench.iter(|| fov.crop(black_box(&pano), black_box(0.9), black_box(pitch)))
        });
    }
    // The benchmark's world (`ServerConfig::default().world_seed`), one
    // bench per layer of its `frame_pipeline`: a far BE of about 1 300
    // object jobs a frame, a case the seed-7 scene above does not reach,
    // the near BE and the whole scene.
    let scene = spec.build_scene(42);
    let eye = scene.eye(scene.bounds().center());
    for (name, filter) in [
        ("far", RenderFilter::FarOnly { cutoff }),
        ("near", RenderFilter::NearOnly { cutoff }),
        ("all", RenderFilter::All),
    ] {
        c.bench_function(&format!("render_{name}_256x128/world42"), |bench| {
            bench.iter(|| renderer.render_panorama(black_box(&scene), eye, filter))
        });
    }
}

fn bench_terrain(c: &mut Criterion) {
    // Slope shading for one panorama row's worth of ground points: a ring
    // around the eye, tight (most blocks of four stay in one noise cell
    // at every octave) and wide (many leave it at the finer octaves).
    let terrain = Terrain::new(42, 8.0, 80.0);
    let light = Vec3::new(0.35, 0.85, 0.40).normalized();
    for radius in [2.0f64, 10.0] {
        let ring = |f: fn(f64) -> f64, centre: f64| -> Vec<f64> {
            (0..256)
                .map(|i| centre + radius * f(i as f64 / 256.0 * std::f64::consts::TAU))
                .collect()
        };
        let (xs, zs) = (ring(f64::sin, 120.0), ring(f64::cos, 90.0));
        let mut out = vec![0.0; 256];
        let mut sampler = terrain.sampler();
        c.bench_function(&format!("terrain_lambert_row_256/{radius}m"), |bench| {
            bench.iter(|| {
                sampler.lambert_row(black_box(&xs), black_box(&zs), light, &mut out);
                out[255]
            })
        });
    }
}

fn bench_simd_levels(c: &mut Criterion) {
    // Every hot kernel at every dispatch level the CPU supports; the
    // scalar entries double as the pre-SIMD baselines since the kernels
    // are bit-identical across levels.
    let frame = LumaFrame::from_fn(256, 128, |x, y| ((x * 7 + y * 13) % 97) as f32 / 96.0);
    let mut other = frame.clone();
    other.set(70, 70, 1.0);
    let opts = SsimOptions::default();
    let dct = simd::Dct8x8::new();
    let mut block = [0.0f32; 64];
    for (i, v) in block.iter_mut().enumerate() {
        *v = ((i * 7919) % 100) as f32 / 100.0 - 0.5;
    }
    let mut coeffs = [0.0f32; 64];
    dct.forward(&block, &mut coeffs, simd::SimdLevel::Scalar);
    let qtable: [f32; 64] = std::array::from_fn(|i| 1.0 + (i as f32) * 0.25);
    for level in simd::available_levels() {
        let name = level.name();
        c.bench_function(&format!("ssim_default_256x128/{name}"), |bench| {
            bench.iter(|| ssim_with_simd(black_box(&frame), black_box(&other), &opts, level))
        });
        let enc = Encoder::with_simd_level(Quality::CRF25, level);
        let encoded = enc.encode(&frame);
        c.bench_function(&format!("codec_encode_256x128/{name}"), |bench| {
            bench.iter(|| enc.encode(black_box(&frame)))
        });
        c.bench_function(&format!("codec_decode_256x128/{name}"), |bench| {
            bench.iter(|| enc.decode(black_box(&encoded)).expect("decodes"))
        });
        c.bench_function(&format!("dct_8x8/{name}"), |bench| {
            bench.iter(|| {
                let mut out = [0.0f32; 64];
                dct.forward(black_box(&block), &mut out, level);
                out
            })
        });
        c.bench_function(&format!("quantize_8x8/{name}"), |bench| {
            bench.iter(|| {
                let mut q = [0i32; 64];
                let mask = simd::quantize_8x8(black_box(&coeffs), &qtable, &mut q, level);
                (mask, q)
            })
        });
    }
}

fn bench_cache(c: &mut Criterion) {
    let mut cache: FrameCache<u64> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
    for i in 0..2000i32 {
        let pos = Vec2::new((i % 100) as f64, (i / 100) as f64);
        cache.insert(
            FrameMeta {
                grid: GridPoint::new(i, i),
                pos,
                leaf: LeafId(0),
                near_hash: 1,
            },
            FrameSource::SelfPrefetch,
            i as u64,
            1,
            pos,
        );
    }
    let query = CacheQuery {
        grid: GridPoint::new(50, 0),
        pos: Vec2::new(50.3, 0.2),
        leaf: LeafId(0),
        near_hash: 1,
        dist_thresh: 1.0,
    };
    c.bench_function("cache_lookup_2000_entries", |bench| {
        bench.iter(|| cache.lookup(black_box(&query)).copied())
    });
}

fn bench_cutoff(c: &mut Criterion) {
    let spec = GameSpec::for_game(GameId::VikingVillage);
    let scene = spec.build_scene(7);
    let device = DeviceProfile::pixel2();
    let config = CutoffConfig::for_spec(&spec);
    let p = scene.bounds().center();
    c.bench_function("cutoff_solve_one_location", |bench| {
        bench.iter(|| max_cutoff_radius(black_box(&scene), &device, &config, p))
    });
}

fn bench_fleet_store(c: &mut Criterion) {
    // The fleet's shared store on the hot path: a similar-match lookup
    // against a populated leaf cache, and the insert + global-budget path.
    let store = LocalStore::new(StoreConfig::default());
    for i in 0..2000i32 {
        let pos = Vec2::new((i % 100) as f64, (i / 100) as f64);
        store.insert(
            GameId::VikingVillage,
            FrameMeta {
                grid: GridPoint::new(i, i),
                pos,
                leaf: LeafId((i % 16) as u32),
                near_hash: 1,
            },
            1024,
        );
    }
    let query = CacheQuery {
        grid: GridPoint::new(50, 0),
        pos: Vec2::new(50.3, 0.2),
        leaf: LeafId(2),
        near_hash: 1,
        dist_thresh: 1.0,
    };
    c.bench_function("fleet_store_lookup_2000_entries", |bench| {
        bench.iter(|| store.lookup(GameId::VikingVillage, black_box(&query)))
    });
    // The `party_warm` shape: a 600-point lap at 1/32 m, filed in 8x8-point
    // leaves and looked up in lap order at the serving threshold (0.75 of
    // the grid step). Every lookup hits its own point's frame, which is
    // the least recently used in its leaf cache, so every hit moves that
    // cache's head.
    let lap: Vec<CacheQuery> = (0..600)
        .map(|i| {
            let t = i % 150;
            let (ix, iz) = [(t, 0), (150, t), (150 - t, 150), (0, 150 - t)][(i / 150) as usize];
            CacheQuery {
                grid: GridPoint::new(ix, iz),
                pos: Vec2::new(ix as f64 / 32.0, iz as f64 / 32.0),
                leaf: LeafId(((ix >> 3) as u32) << 16 | (iz >> 3) as u32),
                near_hash: 1,
                dist_thresh: 0.0234,
            }
        })
        .collect();
    let lap_store = LocalStore::new(StoreConfig::default());
    for q in &lap {
        let meta = FrameMeta {
            grid: q.grid,
            pos: q.pos,
            leaf: q.leaf,
            near_hash: q.near_hash,
        };
        lap_store.insert(GameId::VikingVillage, meta, 1500);
    }
    let mut next = 0;
    c.bench_function("store_hit_lap", |bench| {
        bench.iter(|| {
            next = (next + 1) % lap.len();
            lap_store.lookup(GameId::VikingVillage, black_box(&lap[next]))
        })
    });
    assert_eq!(lap_store.stats().misses, 0, "every lap lookup hits");
    let mut n = 0i32;
    c.bench_function("fleet_store_insert", |bench| {
        bench.iter(|| {
            n += 1;
            let pos = Vec2::new((n % 500) as f64 * 0.37, (n / 500) as f64 * 0.37);
            store.insert(
                GameId::Fps,
                FrameMeta {
                    grid: GridPoint::new(n, -n),
                    pos,
                    leaf: LeafId((n % 16) as u32),
                    near_hash: 2,
                },
                black_box(1024),
            )
        })
    });
}

fn bench_store_scaling(c: &mut Criterion) {
    // Eviction cost against store size: a full `LocalStore` taking one
    // more 1.5 KB frame (so every insert evicts the globally oldest),
    // and one `FrameCache` evicting its LRU entry and taking a new one,
    // at 10^4, 10^5 and 10^6 resident frames. Grid points fill a square
    // and fall into 8x8 leaves as the serving plane tiles them, so the
    // store holds n/64 small leaf caches. Victim selection reads list
    // heads and one head index, never the entries: the curve is flat.
    const FRAME_BYTES: u64 = 1500;
    let frame_at = |i: usize, side: usize| {
        let (ix, iz) = ((i % side) as i32, (i / side) as i32);
        FrameMeta {
            grid: GridPoint::new(ix, iz),
            pos: Vec2::new(ix as f64 * 0.25, iz as f64 * 0.25),
            leaf: LeafId(((ix >> 3) as u32) << 16 | (iz >> 3) as u32),
            near_hash: 1,
        }
    };
    for n in [10_000usize, 100_000, 1_000_000] {
        let side = (n as f64).sqrt().ceil() as usize;

        let store = LocalStore::new(StoreConfig {
            capacity_bytes: n as u64 * FRAME_BYTES,
            ..StoreConfig::default()
        });
        for i in 0..n {
            store.insert(GameId::VikingVillage, frame_at(i, side), FRAME_BYTES);
        }
        let mut next = n;
        c.bench_function(&format!("store_full_insert/{n}"), |bench| {
            bench.iter(|| {
                next += 1;
                store.insert(
                    GameId::VikingVillage,
                    frame_at(next, side),
                    black_box(FRAME_BYTES),
                )
            })
        });
        assert_eq!(store.len(), n, "every timed insert evicted one frame");

        let mut cache: FrameCache<u64> = FrameCache::new(CacheConfig::infinite(CacheVersion::V3));
        let put = |cache: &mut FrameCache<u64>, i: usize| {
            let meta = frame_at(i, side);
            cache.insert(
                meta,
                FrameSource::SelfPrefetch,
                i as u64,
                FRAME_BYTES,
                meta.pos,
            );
        };
        for i in 0..n {
            put(&mut cache, i);
        }
        let mut next = n;
        c.bench_function(&format!("cache_evict_lru_reinsert/{n}"), |bench| {
            bench.iter(|| {
                next += 1;
                put(&mut cache, next);
                cache.evict_lru()
            })
        });
        assert_eq!(cache.len(), n);
    }
}

fn bench_telemetry(c: &mut Criterion) {
    // The zero-cost-when-disabled gate. `render_all_256x128` above
    // already runs the instrumented hot path with the default disabled
    // sink; these benches make the overhead directly
    // visible: the raw no-op call, and the same render with a disabled
    // vs a recording sink explicitly attached (the disabled variant
    // must stay within 1 % of `render_all_256x128`).
    let track = TrackId { pid: 1, tid: 0 };
    let disabled = TelemetrySink::disabled();
    c.bench_function("telemetry_noop_span", |bench| {
        bench.iter(|| {
            black_box(&disabled).span(track, Stage::Render, "noop", 0.0, 1.0, 0);
        })
    });
    let recording = TelemetrySink::recording(TelemetryConfig::default());
    c.bench_function("telemetry_recording_span", |bench| {
        bench.iter(|| {
            black_box(&recording).span(track, Stage::Render, "hot", 0.0, 1.0, 0);
        })
    });

    let spec = GameSpec::for_game(GameId::VikingVillage);
    let scene = spec.build_scene(7);
    let eye = scene.eye(scene.bounds().center());
    let renderer_off =
        Renderer::new(RenderOptions::default()).with_telemetry(TelemetrySink::disabled());
    c.bench_function("render_all_256x128_sink_disabled", |bench| {
        bench.iter(|| renderer_off.render_panorama(black_box(&scene), eye, RenderFilter::All))
    });
    let renderer_on = Renderer::new(RenderOptions::default())
        .with_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    c.bench_function("render_all_256x128_sink_recording", |bench| {
        bench.iter(|| renderer_on.render_panorama(black_box(&scene), eye, RenderFilter::All))
    });
}

fn bench_service_miss(c: &mut Criterion) {
    // A store miss on the socket plane: the far frame rendered at full
    // scale, encoded and inserted. Each iteration serves a grid point
    // half a metre from any served before (the similarity threshold is
    // under 3 cm), and the farm is never drained, so nothing it
    // speculates turns a later point into a hit.
    let core = ServiceCore::new(1 << 30, 7, TelemetrySink::disabled());
    core.join(GameId::VikingVillage, 0);
    let bounds = GameSpec::for_game(GameId::VikingVillage)
        .build_scene(7)
        .bounds();
    let columns = ((bounds.max.x - bounds.min.x) * 2.0) as u64 - 1;
    let mut served = 0u64;
    c.bench_function("service_miss_full_scale", |bench| {
        bench.iter(|| {
            let pos = Vec2::new(
                bounds.min.x + 0.5 * (1 + served % columns) as f64,
                bounds.min.z + 0.5 * (1 + served / columns) as f64,
            );
            served += 1;
            let reply = core.frame_for(GameId::VikingVillage, 0, black_box(pos), 0);
            assert!(reply.rendered && !reply.store_hit, "every pose must miss");
            reply
        })
    });
}

fn bench_conn(c: &mut Criterion) {
    use std::io::{ErrorKind, Read, Write};
    use std::os::unix::net::UnixStream;
    // Both benches answer poses the way the event loop does: one read
    // pass puts them in the connection's inbox, `serve_pending` takes
    // them while the egress queue has room and queues a cached 1.5 KB
    // frame for each, payload by reference, and the peer reads whenever
    // the server can go no further. Timed to the last reply byte; no
    // pose may be discarded.
    let (a, mut peer) = UnixStream::pair().expect("socket pair");
    a.set_nonblocking(true).expect("nonblocking");
    peer.set_nonblocking(true).expect("nonblocking");
    let mut conn = Connection::new(Stream::Unix(a), 256 * 1024);
    let pose = |seq| WireMessage::Pose {
        seq,
        t_ms: 0.0,
        x: 1.0,
        z: 2.0,
        yaw: 0.0,
    };
    let backlog: Vec<u8> = (0..400).flat_map(|seq| pose(seq).encode_frame()).collect();
    let pose_bytes = backlog.len() / 400;
    let payload = Bytes::from(vec![0x5A; 1500]);
    let reply_bytes = FRAME_HEADER_BYTES + payload.len();
    let mut sink = vec![0u8; 64 * 1024];
    let mut answer = |conn: &mut Connection, peer: &mut UnixStream, poses: usize| {
        peer.write_all(&backlog[..poses * pose_bytes])
            .expect("poses fit the socket buffer");
        assert_eq!(conn.read_ready(), ReadOutcome::Progress);
        let mut unread = poses * reply_bytes;
        while unread > 0 {
            conn.serve_pending(false, |conn, msg, _| {
                let WireMessage::Pose { seq, .. } = msg else {
                    unreachable!("only poses were sent");
                };
                let header = frame_header(seq, 128, 64, 1, true, 1000, payload.len());
                conn.enqueue_frame_parts(header, payload.clone());
                false
            })
            .expect("serve pass");
            loop {
                match peer.read(&mut sink) {
                    Ok(n) => unread -= n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("peer read: {e}"),
                }
            }
        }
    };
    // The `party_warm` shape: a read pass of 32 poses, all cached, whose
    // replies fit the socket and leave in one write.
    c.bench_function("conn_batch_32", |bench| {
        bench.iter(|| answer(&mut conn, &mut peer, 32))
    });
    // A reader 400 poses behind that then catches up: 600 KB of replies
    // against a 256 KiB queue and the socket's buffer, so most poses
    // wait their turn.
    c.bench_function("conn_backlog_400", |bench| {
        bench.iter(|| answer(&mut conn, &mut peer, 400))
    });
    assert_eq!(conn.frames_dropped, 0);
}

fn bench_wire(c: &mut Criterion) {
    // What queueing a cached frame by reference saves on every send:
    // the header alone against the whole message copied out.
    let frame = WireMessage::Frame {
        seq: 7,
        width: 128,
        height: 64,
        quality: 1,
        store_hit: true,
        scale_pm: 1000,
        payload: vec![0x5A; 1500],
    };
    c.bench_function("wire_frame_header", |bench| {
        bench.iter(|| frame_header(black_box(7), 128, 64, 1, true, 1000, black_box(1500)))
    });
    c.bench_function("wire_frame_encode_1500", |bench| {
        bench.iter(|| black_box(&frame).encode_frame())
    });
}

criterion_group!(
    benches,
    bench_ssim,
    bench_codec,
    bench_render,
    bench_terrain,
    bench_simd_levels,
    bench_cache,
    bench_cutoff,
    bench_fleet_store,
    bench_telemetry,
    bench_service_miss,
    bench_conn,
    bench_wire
);
criterion_group!(store_scaling, bench_store_scaling);
criterion_main!(benches, store_scaling);
