//! Property and corpus tests for the serving-plane wire protocol.
//!
//! Three layers of assurance, matching how the protocol fails in
//! practice:
//!
//! 1. **Round-trip properties** — arbitrary well-formed messages encode
//!    and decode to themselves, through both the one-shot body codec
//!    and the incremental [`FrameAssembler`] fed in random chunk sizes.
//! 2. **Mutation fuzzing** — random single-byte corruptions of valid
//!    frames either decode to *some* message or fail cleanly with a
//!    [`WireError`]; they never panic and never desynchronize the
//!    assembler's framing.
//! 3. **A hand-written malformed corpus** — the specific shapes a
//!    hostile or broken peer produces (oversize prefixes, truncations,
//!    trailing garbage, out-of-domain fields) map to the exact error
//!    variants the server logic matches on.

use coterie_net::wire::{
    frame_header, game_from_wire, ByeReason, ErrorCode, ResumeRejectReason, HEADER_BYTES,
    MAX_BODY_BYTES, PROTO_VERSION, TOKEN_BYTES,
};
use coterie_net::{FrameAssembler, ResumeToken, WireError, WireMessage};
use coterie_world::GameId;
use proptest::prelude::*;

fn any_game() -> impl Strategy<Value = GameId> {
    (0u8..GameId::ALL.len() as u8).prop_map(|c| game_from_wire(c).unwrap())
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1.0e6f64..1.0e6).prop_map(|v| v)
}

/// The v2 addition: the structured version reject.
fn any_version_reject() -> impl Strategy<Value = WireMessage> {
    (0u16..100, 0u16..100).prop_map(|(a, b)| WireMessage::VersionReject {
        min: a.min(b),
        max: a.max(b),
    })
}

/// The v1 session family a game client speaks.
fn any_session_message() -> impl Strategy<Value = WireMessage> {
    let hello =
        (any_game(), 0u32..64, 0u64..u64::MAX).prop_map(|(game, room, seed)| WireMessage::Hello {
            proto: PROTO_VERSION,
            game,
            room,
            seed,
        });
    let welcome = (0u32..64, 0u32..256, finite_f64()).prop_map(|(room, player, budget_ms)| {
        WireMessage::Welcome {
            room,
            player,
            budget_ms,
            token: None,
        }
    });
    let pose = (
        0u64..u64::MAX,
        finite_f64(),
        finite_f64(),
        finite_f64(),
        finite_f64(),
    )
        .prop_map(|(seq, t_ms, x, z, yaw)| WireMessage::Pose {
            seq,
            t_ms,
            x,
            z,
            yaw,
        });
    let frame = (
        0u64..u64::MAX,
        1u32..4096,
        1u32..4096,
        0u8..3,
        proptest::bool::ANY,
        1u16..=1000,
        proptest::collection::vec(0u8..=255, 1..512),
    )
        .prop_map(
            |(seq, width, height, quality, store_hit, scale_pm, payload)| WireMessage::Frame {
                seq,
                width,
                height,
                quality,
                store_hit,
                scale_pm,
                payload,
            },
        );
    let degrade = (1u16..=1000).prop_map(|scale_pm| WireMessage::Degrade { scale_pm });
    let control = (0u8..5).prop_map(|k| match k {
        0 => WireMessage::Bye,
        1 => WireMessage::Goodbye {
            reason: ByeReason::Normal,
        },
        2 => WireMessage::Goodbye {
            reason: ByeReason::Shutdown,
        },
        3 => WireMessage::Error {
            code: ErrorCode::BadVersion,
        },
        _ => WireMessage::Error {
            code: ErrorCode::BadState,
        },
    });
    (0u8..6, hello, welcome, pose, frame, degrade, control).prop_map(|(pick, h, w, p, f, d, c)| {
        match pick {
            0 => h,
            1 => w,
            2 => p,
            3 => f,
            4 => d,
            _ => c,
        }
    })
}

fn any_token_bytes() -> impl Strategy<Value = [u8; TOKEN_BYTES]> {
    proptest::collection::vec(0u8..=255, TOKEN_BYTES)
        .prop_map(|v| <[u8; TOKEN_BYTES]>::try_from(v.as_slice()).unwrap())
}

/// The v3 resumption family: tokened Welcomes, Resume, ResumeReject.
fn any_resume_message() -> impl Strategy<Value = WireMessage> {
    let welcome = (0u32..64, 0u32..256, finite_f64(), any_token_bytes()).prop_map(
        |(room, player, budget_ms, token)| WireMessage::Welcome {
            room,
            player,
            budget_ms,
            token: Some(token),
        },
    );
    let resume = any_token_bytes().prop_map(|token| WireMessage::Resume {
        proto: PROTO_VERSION,
        token,
    });
    let reject = (0u8..3).prop_map(|k| WireMessage::ResumeReject {
        reason: match k {
            0 => ResumeRejectReason::Expired,
            1 => ResumeRejectReason::Unknown,
            _ => ResumeRejectReason::Malformed,
        },
    });
    (0u8..3, welcome, resume, reject).prop_map(|(pick, w, r, j)| match pick {
        0 => w,
        1 => r,
        _ => j,
    })
}

/// Any protocol message: one in four is a v2 version reject and one in
/// four from the v3 resumption family, so every property also covers
/// the 0x10–0x12 tag range.
fn any_message() -> impl Strategy<Value = WireMessage> {
    (
        0u8..4,
        any_session_message(),
        any_version_reject(),
        any_resume_message(),
    )
        .prop_map(|(pick, session, reject, resume)| match pick {
            0 => reject,
            1 => resume,
            _ => session,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn message_round_trips_through_body_codec(msg in any_message()) {
        let frame = msg.encode_frame();
        let body = &frame[HEADER_BYTES..];
        let len = u32::from_le_bytes(frame[..HEADER_BYTES].try_into().unwrap()) as usize;
        prop_assert_eq!(len, body.len());
        prop_assert_eq!(WireMessage::decode_body(body).unwrap(), msg);
    }

    #[test]
    fn assembler_round_trips_random_chunking(
        msgs in proptest::collection::vec(any_message(), 1..12),
        chunk in 1usize..97,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode_frame());
        }
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            asm.push(piece);
            while let Some(m) = asm.next_message().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(asm.pending_bytes(), 0);
    }

    /// A frame sent as header + payload is the frame sent whole: the same
    /// bytes, over every field's range, and a receiver reassembles it
    /// however the two pieces are chunked.
    #[test]
    fn frame_header_plus_payload_is_the_encoded_frame(
        (seq, width, height) in (0u64..u64::MAX, 1u32..=u32::MAX, 1u32..=u32::MAX),
        (quality, store_hit, scale_pm) in (0u8..=2, proptest::bool::ANY, 1u16..=1000),
        payload in proptest::collection::vec(0u8..=255, 1..=4096),
        chunk in 1usize..97,
    ) {
        let header =
            frame_header(seq, width, height, quality, store_hit, scale_pm, payload.len());
        let pieces = [&header[..], &payload[..]].concat();
        let msg = WireMessage::Frame { seq, width, height, quality, store_hit, scale_pm, payload };
        prop_assert_eq!(&pieces, &msg.encode_frame());
        let (parts_header, parts_payload) = msg.frame_parts().expect("a frame");
        prop_assert_eq!([&parts_header[..], parts_payload].concat(), pieces.clone());
        let mut asm = FrameAssembler::new();
        for piece in pieces.chunks(chunk) {
            prop_assert_eq!(asm.next_message().unwrap(), None);
            asm.push(piece);
        }
        prop_assert_eq!(asm.next_message().unwrap(), Some(msg));
        prop_assert_eq!(asm.pending_bytes(), 0);
    }

    /// Single-byte corruption of a valid stream must never panic, and
    /// as long as the *length prefixes* are intact the assembler must
    /// stay frame-synchronized: every frame either decodes or errors,
    /// and a sane receiver can account for all bytes.
    #[test]
    fn corrupted_bodies_fail_cleanly(
        msg in any_message(),
        flip_at in 0usize..64,
        xor in 1u8..=255,
    ) {
        let mut frame = msg.encode_frame();
        // Corrupt only body bytes, leaving the length prefix valid.
        let body_len = frame.len() - HEADER_BYTES;
        let idx = HEADER_BYTES + (flip_at % body_len);
        frame[idx] ^= xor;

        let mut asm = FrameAssembler::new();
        asm.push(&frame);
        match asm.next_message() {
            Ok(Some(_)) => {
                // Some corruptions land in don't-care bits (payloads,
                // seeds); the frame must have been fully consumed.
                prop_assert_eq!(asm.pending_bytes(), 0);
            }
            Ok(None) => prop_assert!(false, "complete frame reported incomplete"),
            Err(_) => {} // clean protocol error: connection would drop
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The v2/v3 additions live strictly outside the v1 tag space:
    /// every session message a v1 client can receive keeps its v1 type
    /// byte, the v2 addition sits at `VERSION_REJECT` (0x10), and the
    /// v3 resumption messages stay inside the reserved session-control
    /// range (0x10–0x3f) — except the tokened Welcome, which reuses the v1
    /// Welcome tag but is only ever sent to clients that negotiated
    /// v3. This is the wire-level guarantee that old clients decode a
    /// newer server's session traffic unchanged.
    #[test]
    fn new_tags_stay_out_of_the_v1_range(
        session in any_session_message(),
        reject in any_version_reject(),
        resume in any_resume_message(),
    ) {
        let session_tag = session.encode_frame()[HEADER_BYTES];
        prop_assert!(session_tag < 0x10, "session tag 0x{session_tag:02x}");
        prop_assert_eq!(reject.encode_frame()[HEADER_BYTES], 0x10);
        let resume_tag = resume.encode_frame()[HEADER_BYTES];
        let tokened_welcome = matches!(resume, WireMessage::Welcome { .. });
        prop_assert!(
            if tokened_welcome {
                resume_tag < 0x10
            } else {
                (0x11..0x40).contains(&resume_tag)
            },
            "v3 tag 0x{resume_tag:02x} outside the session-control range"
        );
    }

    /// Resume tokens round-trip through sign → wire → verify for any
    /// identity and secret, and never verify under a different secret.
    #[test]
    fn resume_tokens_round_trip_and_authenticate(
        game in any_game(),
        room in 0u32..1 << 20,
        player in 0u32..1 << 16,
        issued_ms in 0u64..1 << 48,
        secret in 0u64..u64::MAX,
        other_secret in 0u64..u64::MAX,
    ) {
        let token = ResumeToken { game, room, player, issued_ms };
        let bytes = token.sign(secret);
        prop_assert_eq!(ResumeToken::verify(&bytes, secret), Some(token));

        // Ride the signed bytes through the wire layer verbatim.
        let msg = WireMessage::Resume { proto: PROTO_VERSION, token: bytes };
        let frame = msg.encode_frame();
        let decoded = WireMessage::decode_body(&frame[HEADER_BYTES..]).unwrap();
        let WireMessage::Resume { token: echoed, .. } = decoded else {
            return Err(proptest::test_runner::TestCaseError::fail(
                "resume decoded to another variant".to_string(),
            ));
        };
        prop_assert_eq!(ResumeToken::verify(&echoed, secret), Some(token));

        if other_secret != secret {
            prop_assert_eq!(ResumeToken::verify(&bytes, other_secret), None);
        }
    }
}

// --- malformed corpus -----------------------------------------------------

/// Hand-written hostile inputs, each pinned to the exact error the
/// server's disconnect path matches on.
#[test]
fn malformed_corpus_maps_to_expected_errors() {
    let corpus: Vec<(&str, Vec<u8>, WireError)> = vec![
        (
            "oversize length prefix",
            (MAX_BODY_BYTES as u32 + 1).to_le_bytes().to_vec(),
            WireError::Oversize(MAX_BODY_BYTES + 1),
        ),
        (
            "u32::MAX length prefix",
            u32::MAX.to_le_bytes().to_vec(),
            WireError::Oversize(u32::MAX as usize),
        ),
        (
            "zero-length body",
            0u32.to_le_bytes().to_vec(),
            WireError::EmptyBody,
        ),
        (
            "unknown message type",
            frame_of(&[0x7f]),
            WireError::UnknownType(0x7f),
        ),
        (
            "hello with bad game id",
            {
                let mut b = vec![0x01u8];
                b.extend_from_slice(&PROTO_VERSION.to_le_bytes());
                b.push(250); // game code far past GameId::ALL
                b.extend_from_slice(&0u32.to_le_bytes());
                b.extend_from_slice(&0u64.to_le_bytes());
                frame_of(&b)
            },
            WireError::BadGame(250),
        ),
        (
            "truncated hello",
            frame_of(&[0x01, 0x01]), // type + half the proto field
            WireError::Truncated,
        ),
        (
            "pose with trailing garbage",
            {
                let pose = WireMessage::Pose {
                    seq: 9,
                    t_ms: 1.0,
                    x: 2.0,
                    z: 3.0,
                    yaw: 0.5,
                };
                let mut body = pose.encode_frame()[HEADER_BYTES..].to_vec();
                body.push(0xAA);
                frame_of(&body)
            },
            WireError::TrailingBytes,
        ),
        (
            "frame with zero scale",
            {
                let mut b = vec![0x04u8];
                b.extend_from_slice(&1u64.to_le_bytes()); // seq
                b.extend_from_slice(&16u32.to_le_bytes()); // width
                b.extend_from_slice(&16u32.to_le_bytes()); // height
                b.push(1); // quality
                b.push(0); // store_hit
                b.extend_from_slice(&0u16.to_le_bytes()); // scale_pm = 0
                frame_of(&b)
            },
            WireError::BadValue("scale per-mille"),
        ),
        (
            "frame with store_hit of 7",
            {
                let mut b = vec![0x04u8];
                b.extend_from_slice(&1u64.to_le_bytes());
                b.extend_from_slice(&16u32.to_le_bytes());
                b.extend_from_slice(&16u32.to_le_bytes());
                b.push(1);
                b.push(7);
                b.extend_from_slice(&500u16.to_le_bytes());
                frame_of(&b)
            },
            WireError::BadValue("store_hit flag"),
        ),
        (
            "welcome with infinite budget",
            {
                let mut b = vec![0x02u8];
                b.extend_from_slice(&0u32.to_le_bytes());
                b.extend_from_slice(&0u32.to_le_bytes());
                b.extend_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
                frame_of(&b)
            },
            WireError::BadValue("budget_ms"),
        ),
        (
            "goodbye with unknown reason",
            frame_of(&[0x07, 99]),
            WireError::BadValue("bye reason"),
        ),
        (
            "degrade over 1000 per-mille",
            {
                let mut b = vec![0x05u8];
                b.extend_from_slice(&1001u16.to_le_bytes());
                frame_of(&b)
            },
            WireError::BadValue("scale per-mille"),
        ),
        (
            "frame with zero-length payload",
            {
                // A complete Frame header and no payload bytes at all:
                // this must be a protocol error, not "need more bytes".
                let mut b = vec![0x04u8];
                b.extend_from_slice(&1u64.to_le_bytes()); // seq
                b.extend_from_slice(&16u32.to_le_bytes()); // width
                b.extend_from_slice(&16u32.to_le_bytes()); // height
                b.push(1); // quality
                b.push(0); // store_hit
                b.extend_from_slice(&500u16.to_le_bytes()); // scale_pm
                frame_of(&b)
            },
            WireError::BadValue("frame payload"),
        ),
        (
            "frame with zero width",
            {
                let mut b = vec![0x04u8];
                b.extend_from_slice(&1u64.to_le_bytes());
                b.extend_from_slice(&0u32.to_le_bytes()); // width = 0
                b.extend_from_slice(&16u32.to_le_bytes());
                b.push(1);
                b.push(0);
                b.extend_from_slice(&500u16.to_le_bytes());
                b.push(0xAB); // one payload byte
                frame_of(&b)
            },
            WireError::BadValue("frame dims"),
        ),
        (
            "version reject with inverted range",
            {
                let mut b = vec![0x10u8];
                b.extend_from_slice(&9u16.to_le_bytes()); // min
                b.extend_from_slice(&3u16.to_le_bytes()); // max < min
                frame_of(&b)
            },
            WireError::BadValue("version range"),
        ),
        // 0x40–0x4f are unassigned: the bytes of the deleted
        // inter-shard messages decode as unknown types, whatever follows.
        (
            "0x40: a former shard hello",
            {
                let mut b = vec![0x40u8];
                b.extend_from_slice(&PROTO_VERSION.to_le_bytes());
                b.extend_from_slice(&0u16.to_le_bytes()); // shard
                b.extend_from_slice(&2u16.to_le_bytes()); // shards
                b.extend_from_slice(&0u64.to_le_bytes()); // epoch
                frame_of(&b)
            },
            WireError::UnknownType(0x40),
        ),
        (
            "0x41: a former shard advert",
            {
                let mut b = vec![0x41u8];
                b.extend_from_slice(&0u16.to_le_bytes()); // shard
                b.extend_from_slice(&1u64.to_le_bytes()); // epoch
                b.extend_from_slice(&0u32.to_le_bytes()); // no entries
                frame_of(&b)
            },
            WireError::UnknownType(0x41),
        ),
        (
            "0x42: a former shard usage digest",
            {
                let mut b = vec![0x42u8];
                b.extend_from_slice(&0u16.to_le_bytes()); // shard
                for field in [1u64, 64, 9, u64::MAX] {
                    b.extend_from_slice(&field.to_le_bytes());
                }
                frame_of(&b)
            },
            WireError::UnknownType(0x42),
        ),
        (
            "0x43: a former shard frame",
            {
                let mut b = vec![0x43u8];
                b.extend_from_slice(&0u16.to_le_bytes()); // shard
                b.push(0); // entry.game
                b.extend_from_slice(&0i32.to_le_bytes()); // grid_ix
                b.extend_from_slice(&0i32.to_le_bytes()); // grid_iz
                b.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // pos_x
                b.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // pos_z
                b.extend_from_slice(&0u32.to_le_bytes()); // leaf
                b.extend_from_slice(&0u64.to_le_bytes()); // near_hash
                b.extend_from_slice(&64u64.to_le_bytes()); // bytes
                b.extend_from_slice(&1u64.to_le_bytes()); // stamp
                b.extend_from_slice(&0f64.to_bits().to_le_bytes()); // value
                b.extend_from_slice(&16u32.to_le_bytes()); // width
                b.extend_from_slice(&16u32.to_le_bytes()); // height
                b.push(1); // quality
                b.extend_from_slice(&1000u16.to_le_bytes()); // scale_pm
                b.extend_from_slice(&[0xAB; 64]); // payload
                frame_of(&b)
            },
            WireError::UnknownType(0x43),
        ),
        (
            "resume with short token",
            {
                let mut b = vec![0x11u8];
                b.extend_from_slice(&PROTO_VERSION.to_le_bytes());
                b.extend_from_slice(&[0xAB; TOKEN_BYTES - 1]);
                frame_of(&b)
            },
            WireError::Truncated,
        ),
        (
            "resume with oversize token",
            {
                let mut b = vec![0x11u8];
                b.extend_from_slice(&PROTO_VERSION.to_le_bytes());
                b.extend_from_slice(&[0xAB; TOKEN_BYTES + 3]);
                frame_of(&b)
            },
            WireError::TrailingBytes,
        ),
        (
            "welcome with chopped token tail",
            {
                let mut b = vec![0x02u8];
                b.extend_from_slice(&0u32.to_le_bytes()); // room
                b.extend_from_slice(&0u32.to_le_bytes()); // player
                b.extend_from_slice(&16.7f64.to_bits().to_le_bytes());
                b.extend_from_slice(&[0xCD; TOKEN_BYTES / 2]);
                frame_of(&b)
            },
            WireError::Truncated,
        ),
        (
            "resume reject with unknown reason",
            frame_of(&[0x12, 42]),
            WireError::BadValue("resume reject reason"),
        ),
    ];

    for (name, bytes, want) in corpus {
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        match asm.next_message() {
            Err(got) => assert_eq!(got, want, "corpus case {name:?}"),
            other => panic!("corpus case {name:?}: expected Err({want:?}), got {other:?}"),
        }
    }
}

/// A length prefix arriving split across reads — including one byte at
/// a time, and with the body split at every offset after it — must
/// reassemble exactly, never error, and never yield early. This is the
/// shape a congested TCP stream actually produces (a 4-byte prefix has
/// no alignment guarantee against segment boundaries).
#[test]
fn split_length_prefix_reassembles() {
    let msg = WireMessage::Pose {
        seq: 5,
        t_ms: 33.4,
        x: 1.0,
        z: -2.0,
        yaw: 0.25,
    };
    let frame = msg.encode_frame();
    // Split the stream at every byte boundary inside the prefix and
    // body: feed [..cut] then [cut..].
    for cut in 1..frame.len() {
        let mut asm = FrameAssembler::new();
        asm.push(&frame[..cut]);
        assert_eq!(
            asm.next_message(),
            Ok(None),
            "prefix/body split at {cut} must wait for the rest"
        );
        asm.push(&frame[cut..]);
        assert_eq!(asm.next_message(), Ok(Some(msg.clone())), "split at {cut}");
        assert_eq!(asm.pending_bytes(), 0);
    }
    // Degenerate pacing: one byte per push.
    let mut asm = FrameAssembler::new();
    let mut got = None;
    for &b in &frame {
        asm.push(&[b]);
        if let Some(m) = asm.next_message().unwrap() {
            got = Some(m);
        }
    }
    assert_eq!(got, Some(msg));
}

/// Truncating a valid frame at every possible byte boundary must leave
/// the assembler waiting for more input, never erroring or yielding.
#[test]
fn every_truncation_point_waits_for_more() {
    let msg = WireMessage::Frame {
        seq: 77,
        width: 128,
        height: 64,
        quality: 1,
        store_hit: false,
        scale_pm: 1000,
        payload: vec![9; 40],
    };
    let frame = msg.encode_frame();
    for cut in 0..frame.len() {
        let mut asm = FrameAssembler::new();
        asm.push(&frame[..cut]);
        assert_eq!(
            asm.next_message(),
            Ok(None),
            "truncation at byte {cut} should wait, not fail"
        );
    }
}

fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}
