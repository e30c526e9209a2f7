//! The render server: pre-renders and encodes BE panoramas.
//!
//! The Coterie server "pre-renders and pre-encodes (using x264 ...)
//! panoramic far BE frames for all the grid points the player can reach"
//! and replies to prefetch requests with them (§5.1). Multi-Furion's
//! server does the same for whole-BE panoramas; the Thin-client server
//! renders per-player FoV frames live.

use coterie_codec::{EncodedFrame, Encoder, Quality, SizeModel};
use coterie_frame::LumaFrame;
use coterie_render::{FovOptions, Panorama, RenderFilter, Renderer};
use coterie_telemetry::{Stage, TelemetrySink, TrackId};
use coterie_world::{Scene, SceneObject, Vec2};

/// A rendered-and-encoded frame plus its 4K-equivalent transfer size.
#[derive(Debug, Clone)]
pub struct ServedFrame {
    /// The encoded payload (at simulation resolution).
    pub encoded: EncodedFrame,
    /// Transfer size at the paper's resolution, bytes.
    pub transfer_bytes: u64,
}

/// The desktop render server.
#[derive(Debug)]
pub struct RenderServer<'a> {
    scene: &'a Scene,
    renderer: Renderer,
    encoder: Encoder,
    /// Size scaling for whole-BE 4K panoramas (Multi-Furion prefetch).
    /// Near content moves fast across the image between GOP frames, so
    /// x264's motion compensation saves little on it.
    whole_size_model: SizeModel,
    /// Size scaling for far-BE panoramas: far content is nearly static
    /// between adjacent grid points, so the temporal prediction of a
    /// real video codec compresses it harder than our intra-only codec
    /// measures. Calibrated to the paper's 2-3x whole/far size ratio.
    far_size_model: SizeModel,
    /// Size scaling for the thin client's live-streamed viewport frames.
    /// Its efficiency factor is higher than the panorama model's because
    /// the stream carries two full-detail eye views whose content our
    /// low-resolution crop smooths away.
    fov_size_model: SizeModel,
    fov: FovOptions,
    /// Telemetry sink for encode/decode spans; disabled by default.
    telemetry: TelemetrySink,
    /// Trace lane the codec spans land on.
    telemetry_track: TrackId,
}

impl<'a> RenderServer<'a> {
    /// Creates a server for a scene.
    pub fn new(scene: &'a Scene, renderer: Renderer) -> Self {
        RenderServer {
            scene,
            renderer,
            encoder: Encoder::new(Quality::CRF25),
            whole_size_model: SizeModel {
                h264_efficiency: 0.46,
                ..SizeModel::default()
            },
            far_size_model: SizeModel {
                h264_efficiency: 0.32,
                ..SizeModel::default()
            },
            fov_size_model: SizeModel {
                target_width: 1920,
                target_height: 1080,
                h264_efficiency: 3.0,
            },
            fov: FovOptions::default(),
            telemetry: TelemetrySink::disabled(),
            telemetry_track: TrackId { pid: 0, tid: 0 },
        }
    }

    /// Routes encode/decode spans to `sink` on trace lane `track`.
    pub fn with_telemetry(mut self, sink: TelemetrySink, track: TrackId) -> Self {
        self.telemetry = sink;
        self.telemetry_track = track;
        self
    }

    /// The scene being served.
    pub fn scene(&self) -> &Scene {
        self.scene
    }

    /// The renderer in use.
    pub fn renderer(&self) -> &Renderer {
        &self.renderer
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Renders + encodes the whole-BE panorama at a position
    /// (Multi-Furion's prefetched frame).
    pub fn whole_be(&self, pos: Vec2) -> ServedFrame {
        let pano =
            self.renderer
                .render_panorama(self.scene, self.scene.eye(pos), RenderFilter::All);
        self.encode_pano(&pano, &self.whole_size_model)
    }

    /// Renders + encodes the far-BE panorama at a position with the given
    /// cutoff radius (Coterie's prefetched frame).
    pub fn far_be(&self, pos: Vec2, cutoff: f64) -> ServedFrame {
        let pano = self.renderer.render_panorama(
            self.scene,
            self.scene.eye(pos),
            RenderFilter::FarOnly { cutoff },
        );
        self.encode_pano(&pano, &self.far_size_model)
    }

    /// Renders + encodes one live thin-client viewport frame (whole scene
    /// plus FI avatars, cropped to the headset FoV).
    pub fn thin_client_frame(&self, pos: Vec2, yaw: f64, avatars: &[SceneObject]) -> ServedFrame {
        let pano = self.renderer.render_panorama_with(
            self.scene,
            self.scene.eye(pos),
            RenderFilter::All,
            avatars,
        );
        let view = self.fov.crop(&pano.frame, yaw, 0.0);
        let encoded = self.timed(Stage::Encode, "encode", || self.encoder.encode(&view));
        let transfer_bytes = self.fov_size_model.scaled_bytes(&encoded);
        ServedFrame {
            encoded,
            transfer_bytes,
        }
    }

    /// Decodes a served frame back to luma (the client-side step).
    ///
    /// # Panics
    ///
    /// Panics if the frame does not round-trip — impossible for frames
    /// produced by this server.
    pub fn decode(&self, frame: &ServedFrame) -> LumaFrame {
        self.timed(Stage::Decode, "decode", || {
            self.encoder.decode(&frame.encoded)
        })
        .expect("server-encoded frames always decode")
    }

    fn encode_pano(&self, pano: &Panorama, model: &SizeModel) -> ServedFrame {
        let encoded = self.timed(Stage::Encode, "encode", || self.encoder.encode(&pano.frame));
        let transfer_bytes = model.scaled_bytes(&encoded);
        ServedFrame {
            encoded,
            transfer_bytes,
        }
    }

    /// Runs `work` and, when the sink is enabled, records it as a span
    /// on the server's lane with its wall-clock duration (encoding and
    /// decoding are real compute).
    fn timed<R>(&self, stage: Stage, name: &'static str, work: impl FnOnce() -> R) -> R {
        let started = self.telemetry.is_enabled().then(std::time::Instant::now);
        let out = work();
        if let Some(t0) = started {
            self.telemetry.span(
                self.telemetry_track,
                stage,
                name,
                self.telemetry.now_ms(),
                t0.elapsed().as_secs_f64() * 1000.0,
                0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_render::RenderOptions;
    use coterie_world::{GameId, GameSpec};

    fn server_for(id: GameId) -> (Scene, GameSpec) {
        let spec = GameSpec::for_game(id);
        (spec.build_scene(7), spec)
    }

    #[test]
    fn whole_be_sizes_land_in_paper_range() {
        // Table 1: Multi-Furion whole-BE frames are 440-564 KB at 4K.
        let (scene, _) = server_for(GameId::VikingVillage);
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let f = server.whole_be(scene.bounds().center());
        let kb = f.transfer_bytes / 1000;
        assert!(
            (250..900).contains(&kb),
            "whole-BE 4K-equivalent size {kb} KB out of plausible range"
        );
    }

    #[test]
    fn far_be_smaller_than_whole_be() {
        // "Coterie without cache ... prefetches far BE frames ... which
        // are about 2X-3X [smaller]" (§7.2).
        let (scene, _) = server_for(GameId::VikingVillage);
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let pos = scene.bounds().center();
        let whole = server.whole_be(pos);
        let far = server.far_be(pos, 10.0);
        assert!(
            far.transfer_bytes < whole.transfer_bytes,
            "far {} must be smaller than whole {}",
            far.transfer_bytes,
            whole.transfer_bytes
        );
    }

    #[test]
    fn larger_cutoff_smaller_far_frames() {
        let (scene, _) = server_for(GameId::VikingVillage);
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let pos = scene.bounds().center();
        let near_cut = server.far_be(pos, 4.0);
        let far_cut = server.far_be(pos, 40.0);
        assert!(far_cut.transfer_bytes <= near_cut.transfer_bytes);
    }

    #[test]
    fn decode_roundtrips() {
        let (scene, _) = server_for(GameId::Pool);
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let f = server.whole_be(scene.bounds().center());
        let decoded = server.decode(&f);
        assert_eq!(decoded.width(), server.renderer().options().width);
    }

    #[test]
    fn thin_client_frame_has_fov_dimensions() {
        let (scene, _) = server_for(GameId::Pool);
        let server = RenderServer::new(&scene, Renderer::new(RenderOptions::fast()));
        let f = server.thin_client_frame(scene.bounds().center(), 0.3, &[]);
        assert!(
            f.transfer_bytes > 10_000,
            "thin frame {} bytes",
            f.transfer_bytes
        );
        let decoded = server.decode(&f);
        assert_eq!(decoded.width(), FovOptions::default().width);
    }

    #[test]
    fn codec_spans_land_on_the_server_track() {
        use coterie_telemetry::{TelemetryConfig, TelemetrySink};
        let (scene, _) = server_for(GameId::Pool);
        let renderer = Renderer::new(RenderOptions::fast());
        let pos = scene.bounds().center();
        let track = TrackId { pid: 3, tid: 5 };
        let sink = TelemetrySink::recording(TelemetryConfig::default());
        let server =
            RenderServer::new(&scene, renderer.clone()).with_telemetry(sink.clone(), track);

        let far = server.far_be(pos, 10.0);
        let spans = sink.spans_snapshot();
        assert_eq!(spans.len(), 1, "far_be records one span: {spans:?}");
        assert_eq!(
            (spans[0].track, spans[0].stage, spans[0].name),
            (track, Stage::Encode, "encode")
        );
        assert!(spans[0].dur_ms >= 0.0);

        server.decode(&far);
        let spans = sink.spans_snapshot();
        assert_eq!(spans.len(), 2, "decode records one span: {spans:?}");
        let decode: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Decode).collect();
        assert_eq!(decode.len(), 1);
        assert_eq!((decode[0].track, decode[0].name), (track, "decode"));

        // The default server holds a disabled sink: nothing reaches the
        // recording one, and the frames are the same bytes.
        let untraced = RenderServer::new(&scene, renderer);
        let plain = untraced.far_be(pos, 10.0);
        untraced.decode(&plain);
        assert_eq!(sink.spans_snapshot().len(), 2);
        assert_eq!(plain.encoded, far.encoded);
    }
}
