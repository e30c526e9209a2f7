//! The serving-plane wire protocol: length-prefixed session messages.
//!
//! `coterie-server` and its load-generator client speak this protocol
//! over TCP or Unix-domain stream sockets. Every message travels in one
//! *frame*:
//!
//! ```text
//! frame := len:u32le  body
//! body  := type:u8    payload
//! ```
//!
//! `len` counts the body bytes (type byte included) and is capped at
//! [`MAX_BODY_BYTES`] so a malformed or hostile peer cannot make the
//! receiver buffer unboundedly. All integers are little-endian;
//! floating-point fields travel as IEEE-754 bit patterns.
//!
//! The session state machine is deliberately small:
//!
//! 1. client → [`WireMessage::Hello`] (protocol version, game, room),
//!    or [`WireMessage::Resume`] with the token of a dropped session;
//! 2. server → [`WireMessage::Welcome`] (room, player id, budget and a
//!    reconnect token), or a [`WireMessage::VersionReject`] /
//!    [`WireMessage::ResumeReject`];
//! 3. client → [`WireMessage::Pose`] per display interval, server →
//!    [`WireMessage::Frame`] with the encoded far-BE payload, with
//!    [`WireMessage::Degrade`] notices interleaved when the room's
//!    quality controller changes the scale;
//! 4. client → [`WireMessage::Bye`], server → [`WireMessage::Goodbye`]
//!    and a flush-then-close.
//!
//! [`FrameAssembler`] is the incremental receive half: feed it whatever
//! the socket produced and pull complete messages out. It never copies
//! more than once and never holds more than one maximum-size frame plus
//! one read's worth of bytes.

use coterie_world::GameId;

/// The one protocol revision, carried in [`WireMessage::Hello`] and
/// [`WireMessage::Resume`]. A server answers any other value with
/// [`WireMessage::VersionReject`] naming this revision as both ends of
/// its window. Tags `0x01`–`0x08` are the session family, `0x10`–`0x12`
/// the session-control messages; anything else decodes as
/// [`WireError::UnknownType`].
pub const PROTO_VERSION: u16 = 3;

/// Hard cap on one frame's body, bytes. Far-BE payloads at our render
/// resolutions are tens of KB; 4 MiB leaves room for any realistic
/// quality scale while bounding a malicious length prefix.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Length-prefix size, bytes.
pub const HEADER_BYTES: usize = 4;

/// Size of [`frame_header`]'s result: the length prefix, the type byte
/// and the fixed fields of a `Frame`, bytes.
pub const FRAME_HEADER_BYTES: usize = HEADER_BYTES + 21;

/// Message type tags (the first body byte).
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const POSE: u8 = 0x03;
    pub const FRAME: u8 = 0x04;
    pub const DEGRADE: u8 = 0x05;
    pub const BYE: u8 = 0x06;
    pub const GOODBYE: u8 = 0x07;
    pub const ERROR: u8 = 0x08;
    // 0x10–0x3f: session control.
    pub const VERSION_REJECT: u8 = 0x10;
    pub const RESUME: u8 = 0x11;
    pub const RESUME_REJECT: u8 = 0x12;
}

/// Exact size of a reconnect token on the wire, bytes: the session
/// identity (`game:u8 room:u32 player:u32 issued_ms:u64`) plus a
/// 64-bit MAC. Tokens are opaque to clients: they echo the bytes back
/// verbatim in [`WireMessage::Resume`].
pub const TOKEN_BYTES: usize = 25;

/// Why a peer was told to go away ([`WireMessage::Goodbye`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByeReason {
    /// Clean end of session (client sent [`WireMessage::Bye`]).
    Normal = 0,
    /// The server is shutting down and draining connections.
    Shutdown = 1,
}

impl ByeReason {
    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ByeReason::Normal),
            1 => Ok(ByeReason::Shutdown),
            _ => Err(WireError::BadValue("bye reason")),
        }
    }
}

/// Protocol-level error codes ([`WireMessage::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A message arrived that the session state does not allow (e.g. a
    /// pose before the hello).
    BadState = 1,
    /// A message failed to decode.
    Malformed = 2,
}

impl ErrorCode {
    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(ErrorCode::BadState),
            2 => Ok(ErrorCode::Malformed),
            _ => Err(WireError::BadValue("error code")),
        }
    }
}

/// Why a [`WireMessage::Resume`] was refused ([`WireMessage::ResumeReject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeRejectReason {
    /// The token was valid once but its TTL has elapsed (or the parked
    /// session state was already reclaimed).
    Expired = 0,
    /// The token does not correspond to any session this server parked.
    Unknown = 1,
    /// The token failed signature verification.
    Malformed = 2,
}

impl ResumeRejectReason {
    fn from_wire(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ResumeRejectReason::Expired),
            1 => Ok(ResumeRejectReason::Unknown),
            2 => Ok(ResumeRejectReason::Malformed),
            _ => Err(WireError::BadValue("resume reject reason")),
        }
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Client session request: join `room` of `game`.
    Hello {
        /// Protocol revision ([`PROTO_VERSION`]).
        proto: u16,
        /// Game the client wants to play.
        game: GameId,
        /// Room id the client wants to join.
        room: u32,
        /// Client-chosen seed (lets the server tell load-gen cohorts
        /// apart in traces; no protocol semantics).
        seed: u64,
    },
    /// Server accepts the hello.
    Welcome {
        /// Room actually joined.
        room: u32,
        /// Player id assigned within the room.
        player: u32,
        /// The vsync budget the room is serving against, ms.
        budget_ms: f64,
        /// Opaque signed reconnect token, for a later
        /// [`WireMessage::Resume`].
        token: [u8; TOKEN_BYTES],
    },
    /// Client pose update; the server answers with a [`WireMessage::Frame`].
    Pose {
        /// Client frame sequence number (echoed back).
        seq: u64,
        /// Client session clock, ms.
        t_ms: f64,
        /// World x, meters.
        x: f64,
        /// World z, meters.
        z: f64,
        /// Heading, radians.
        yaw: f64,
    },
    /// Far-BE frame delivery.
    Frame {
        /// Echo of the pose's sequence number.
        seq: u64,
        /// Encoded frame width, px.
        width: u32,
        /// Encoded frame height, px.
        height: u32,
        /// Codec quality code (0 = CRF18, 1 = CRF25, 2 = CRF32).
        quality: u8,
        /// Whether the frame came from the shared store (vs rendered
        /// on demand for this request).
        store_hit: bool,
        /// Quality scale the frame was produced at, per-mille.
        scale_pm: u16,
        /// The codec-encoded payload.
        payload: Vec<u8>,
    },
    /// Quality-degrade (or recovery) notice from the room controller.
    Degrade {
        /// New quality scale, per-mille of full quality.
        scale_pm: u16,
    },
    /// Client requests a clean close.
    Bye,
    /// Server closes the session after flushing.
    Goodbye {
        /// Why.
        reason: ByeReason,
    },
    /// Protocol error report (either direction, best-effort).
    Error {
        /// What kind.
        code: ErrorCode,
    },
    /// Structured version-negotiation failure: the server's reply to a
    /// `Hello` or `Resume` whose `proto` falls outside `[min, max]`,
    /// telling the client which revisions it *does* speak instead of a
    /// bare [`WireMessage::Error`] drop.
    VersionReject {
        /// Oldest revision the server accepts.
        min: u16,
        /// Newest revision the server accepts.
        max: u16,
    },
    /// Client asks to resume a dropped session: instead of a
    /// fresh [`WireMessage::Hello`], it presents the token from its
    /// last Welcome. Within the TTL the server re-attaches the parked
    /// session (same room, player id, and quality level) and answers
    /// with a [`WireMessage::Welcome`]; otherwise it answers with a
    /// [`WireMessage::ResumeReject`].
    Resume {
        /// Protocol revision ([`PROTO_VERSION`]).
        proto: u16,
        /// The token bytes from the original Welcome, verbatim.
        token: [u8; TOKEN_BYTES],
    },
    /// Structured resume failure: the token was expired, unknown,
    /// or forged. The client should fall back to a fresh hello.
    ResumeReject {
        /// Why.
        reason: ResumeRejectReason,
    },
}

/// Decode/stream errors. Any of these on a live connection is a
/// protocol violation; the peer should be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A length prefix exceeded [`MAX_BODY_BYTES`].
    Oversize(usize),
    /// A frame body was empty (no type byte).
    EmptyBody,
    /// A complete frame's payload was shorter than its message needs.
    Truncated,
    /// A complete frame's payload was longer than its message allows.
    TrailingBytes,
    /// Unknown message type byte.
    UnknownType(u8),
    /// Unknown game id on the wire.
    BadGame(u8),
    /// A field held a value outside its domain.
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::EmptyBody => write!(f, "frame with empty body"),
            WireError::Truncated => write!(f, "message payload truncated"),
            WireError::TrailingBytes => write!(f, "message payload has trailing bytes"),
            WireError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::BadGame(g) => write!(f, "unknown game id {g}"),
            WireError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Stable wire code of a game (its index in [`GameId::ALL`]).
pub fn game_to_wire(game: GameId) -> u8 {
    GameId::ALL
        .iter()
        .position(|&g| g == game)
        .expect("every game is in GameId::ALL") as u8
}

/// Decodes a wire game code.
pub fn game_from_wire(code: u8) -> Result<GameId, WireError> {
    GameId::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::BadGame(code))
}

// --- encode ---------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Everything of a `Frame` message's wire encoding that precedes its
/// payload: `frame_header(..) ++ payload` is `WireMessage::Frame {..}
/// .encode_frame()` byte for byte, so a sender holding the payload by
/// reference queues the two pieces and copies nothing.
///
/// # Panics
///
/// Panics if the body would exceed [`MAX_BODY_BYTES`], as
/// [`WireMessage::encode_frame`] does.
pub fn frame_header(
    seq: u64,
    width: u32,
    height: u32,
    quality: u8,
    store_hit: bool,
    scale_pm: u16,
    payload_len: usize,
) -> [u8; FRAME_HEADER_BYTES] {
    let body_len = FRAME_HEADER_BYTES - HEADER_BYTES + payload_len;
    assert!(
        body_len <= MAX_BODY_BYTES,
        "outgoing frame body of {body_len} bytes exceeds the wire cap"
    );
    let mut h = [0u8; FRAME_HEADER_BYTES];
    h[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    h[4] = tag::FRAME;
    h[5..13].copy_from_slice(&seq.to_le_bytes());
    h[13..17].copy_from_slice(&width.to_le_bytes());
    h[17..21].copy_from_slice(&height.to_le_bytes());
    h[21] = quality;
    h[22] = u8::from(store_hit);
    h[23..].copy_from_slice(&scale_pm.to_le_bytes());
    h
}

impl WireMessage {
    /// Serializes the message body (type byte + payload, no length
    /// prefix) into `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Hello {
                proto,
                game,
                room,
                seed,
            } => {
                out.push(tag::HELLO);
                put_u16(out, *proto);
                out.push(game_to_wire(*game));
                put_u32(out, *room);
                put_u64(out, *seed);
            }
            WireMessage::Welcome {
                room,
                player,
                budget_ms,
                token,
            } => {
                out.push(tag::WELCOME);
                put_u32(out, *room);
                put_u32(out, *player);
                put_f64(out, *budget_ms);
                out.extend_from_slice(token);
            }
            WireMessage::Pose {
                seq,
                t_ms,
                x,
                z,
                yaw,
            } => {
                out.push(tag::POSE);
                put_u64(out, *seq);
                put_f64(out, *t_ms);
                put_f64(out, *x);
                put_f64(out, *z);
                put_f64(out, *yaw);
            }
            WireMessage::Frame { .. } => {
                let (header, payload) = self.frame_parts().expect("matched a frame");
                out.extend_from_slice(&header[HEADER_BYTES..]);
                out.extend_from_slice(payload);
            }
            WireMessage::Degrade { scale_pm } => {
                out.push(tag::DEGRADE);
                put_u16(out, *scale_pm);
            }
            WireMessage::Bye => out.push(tag::BYE),
            WireMessage::Goodbye { reason } => {
                out.push(tag::GOODBYE);
                out.push(*reason as u8);
            }
            WireMessage::Error { code } => {
                out.push(tag::ERROR);
                out.push(*code as u8);
            }
            WireMessage::VersionReject { min, max } => {
                out.push(tag::VERSION_REJECT);
                put_u16(out, *min);
                put_u16(out, *max);
            }
            WireMessage::Resume { proto, token } => {
                out.push(tag::RESUME);
                put_u16(out, *proto);
                out.extend_from_slice(token);
            }
            WireMessage::ResumeReject { reason } => {
                out.push(tag::RESUME_REJECT);
                out.push(*reason as u8);
            }
        }
    }

    /// A `Frame`'s two pieces, [`frame_header`] and the payload, which
    /// concatenated are its [`WireMessage::encode_frame`]; `None` for any
    /// other message.
    pub fn frame_parts(&self) -> Option<([u8; FRAME_HEADER_BYTES], &[u8])> {
        let WireMessage::Frame {
            seq,
            width,
            height,
            quality,
            store_hit,
            scale_pm,
            payload,
        } = self
        else {
            return None;
        };
        let header = frame_header(
            *seq,
            *width,
            *height,
            *quality,
            *store_hit,
            *scale_pm,
            payload.len(),
        );
        Some((header, payload))
    }

    /// Serializes a complete wire frame (length prefix + body).
    ///
    /// # Panics
    ///
    /// Panics if the body would exceed [`MAX_BODY_BYTES`] — senders
    /// construct payloads well under the cap, so an oversize frame is a
    /// programming error, not a runtime condition.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[0u8; HEADER_BYTES]);
        self.encode_body(&mut out);
        let body_len = out.len() - HEADER_BYTES;
        assert!(
            body_len <= MAX_BODY_BYTES,
            "outgoing frame body of {body_len} bytes exceeds the wire cap"
        );
        out[..HEADER_BYTES].copy_from_slice(&(body_len as u32).to_le_bytes());
        out
    }

    /// Decodes one complete frame body (type byte + payload).
    pub fn decode_body(body: &[u8]) -> Result<WireMessage, WireError> {
        let (&t, rest) = body.split_first().ok_or(WireError::EmptyBody)?;
        let mut r = Reader { buf: rest, pos: 0 };
        let msg = match t {
            tag::HELLO => {
                let proto = r.u16()?;
                let game = game_from_wire(r.u8()?)?;
                let room = r.u32()?;
                let seed = r.u64()?;
                WireMessage::Hello {
                    proto,
                    game,
                    room,
                    seed,
                }
            }
            tag::WELCOME => WireMessage::Welcome {
                room: r.u32()?,
                player: r.u32()?,
                budget_ms: r.finite_f64("budget_ms")?,
                token: r.token()?,
            },
            tag::POSE => WireMessage::Pose {
                seq: r.u64()?,
                t_ms: r.finite_f64("t_ms")?,
                x: r.finite_f64("x")?,
                z: r.finite_f64("z")?,
                yaw: r.finite_f64("yaw")?,
            },
            tag::FRAME => {
                let seq = r.u64()?;
                let width = r.u32()?;
                let height = r.u32()?;
                if width == 0 || height == 0 {
                    return Err(WireError::BadValue("frame dims"));
                }
                let quality = r.u8()?;
                if quality > 2 {
                    return Err(WireError::BadValue("quality code"));
                }
                let store_hit = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadValue("store_hit flag")),
                };
                let scale_pm = r.u16()?;
                if scale_pm == 0 || scale_pm > 1000 {
                    return Err(WireError::BadValue("scale per-mille"));
                }
                let payload = r.rest().to_vec();
                // A zero-length payload is indistinguishable from a
                // truncated encode on the receive side; encoders always
                // produce at least one byte, so reject it outright
                // rather than conflating it with "need more bytes".
                if payload.is_empty() {
                    return Err(WireError::BadValue("frame payload"));
                }
                return Ok(WireMessage::Frame {
                    seq,
                    width,
                    height,
                    quality,
                    store_hit,
                    scale_pm,
                    payload,
                });
            }
            tag::DEGRADE => {
                let scale_pm = r.u16()?;
                if scale_pm == 0 || scale_pm > 1000 {
                    return Err(WireError::BadValue("scale per-mille"));
                }
                WireMessage::Degrade { scale_pm }
            }
            tag::BYE => WireMessage::Bye,
            tag::GOODBYE => WireMessage::Goodbye {
                reason: ByeReason::from_wire(r.u8()?)?,
            },
            tag::ERROR => WireMessage::Error {
                code: ErrorCode::from_wire(r.u8()?)?,
            },
            tag::VERSION_REJECT => {
                let min = r.u16()?;
                let max = r.u16()?;
                if min > max {
                    return Err(WireError::BadValue("version range"));
                }
                WireMessage::VersionReject { min, max }
            }
            tag::RESUME => WireMessage::Resume {
                proto: r.u16()?,
                token: r.token()?,
            },
            tag::RESUME_REJECT => WireMessage::ResumeReject {
                reason: ResumeRejectReason::from_wire(r.u8()?)?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        if r.pos != r.buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(msg)
    }
}

/// Bounds-checked little-endian field reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn token(&mut self) -> Result<[u8; TOKEN_BYTES], WireError> {
        Ok(self.take(TOKEN_BYTES)?.try_into().unwrap())
    }

    /// An f64 that must be finite on the wire (poses and budgets are
    /// physical quantities; NaN/inf only ever arrive from corruption).
    fn finite_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        let v = f64::from_bits(self.u64()?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(WireError::BadValue(what))
        }
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

// --- incremental framing --------------------------------------------------

/// Incremental receive-side framer.
///
/// Feed raw socket bytes with [`FrameAssembler::push`], then drain
/// complete messages with [`FrameAssembler::next_message`]. The
/// assembler compacts its buffer as frames complete, so steady-state
/// memory is one partial frame plus the last read.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the socket.
    pub fn push(&mut self, data: &[u8]) {
        // Compact before growing so the buffer never retains an
        // unbounded consumed prefix.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete message.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] means the stream is corrupt; the connection
    /// should be closed (the assembler makes no attempt to resync).
    pub fn next_message(&mut self) -> Result<Option<WireMessage>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[..HEADER_BYTES].try_into().unwrap()) as usize;
        if body_len > MAX_BODY_BYTES {
            return Err(WireError::Oversize(body_len));
        }
        if avail.len() < HEADER_BYTES + body_len {
            return Ok(None);
        }
        let body = &avail[HEADER_BYTES..HEADER_BYTES + body_len];
        let msg = WireMessage::decode_body(body)?;
        self.start += HEADER_BYTES + body_len;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::Hello {
                proto: PROTO_VERSION,
                game: GameId::VikingVillage,
                room: 3,
                seed: 0xDEAD_BEEF,
            },
            WireMessage::Welcome {
                room: 3,
                player: 1,
                budget_ms: 16.7,
                token: sample_token(),
            },
            WireMessage::Resume {
                proto: PROTO_VERSION,
                token: sample_token(),
            },
            WireMessage::ResumeReject {
                reason: ResumeRejectReason::Expired,
            },
            WireMessage::Pose {
                seq: 42,
                t_ms: 700.25,
                x: -3.5,
                z: 12.0,
                yaw: 1.25,
            },
            WireMessage::Frame {
                seq: 42,
                width: 128,
                height: 64,
                quality: 1,
                store_hit: true,
                scale_pm: 750,
                payload: vec![1, 2, 3, 4, 5],
            },
            WireMessage::Degrade { scale_pm: 562 },
            WireMessage::Bye,
            WireMessage::Goodbye {
                reason: ByeReason::Shutdown,
            },
            WireMessage::Error {
                code: ErrorCode::BadState,
            },
            WireMessage::VersionReject {
                min: PROTO_VERSION,
                max: PROTO_VERSION,
            },
        ]
    }

    fn sample_token() -> [u8; TOKEN_BYTES] {
        let mut t = [0u8; TOKEN_BYTES];
        for (i, b) in t.iter_mut().enumerate() {
            *b = i as u8 ^ 0xA5;
        }
        t
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = msg.encode_frame();
            let body = &frame[HEADER_BYTES..];
            assert_eq!(WireMessage::decode_body(body).unwrap(), msg);
        }
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode_frame());
        }
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.push(&[b]);
            while let Some(m) = asm.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn oversize_length_prefix_is_rejected() {
        let mut asm = FrameAssembler::new();
        asm.push(&(MAX_BODY_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(
            asm.next_message(),
            Err(WireError::Oversize(MAX_BODY_BYTES + 1))
        );
    }

    #[test]
    fn empty_body_is_rejected() {
        let mut asm = FrameAssembler::new();
        asm.push(&0u32.to_le_bytes());
        assert_eq!(asm.next_message(), Err(WireError::EmptyBody));
    }

    #[test]
    fn truncated_pose_is_rejected() {
        let pose = WireMessage::Pose {
            seq: 1,
            t_ms: 0.0,
            x: 0.0,
            z: 0.0,
            yaw: 0.0,
        };
        let frame = pose.encode_frame();
        // Chop the last payload byte and fix the length prefix.
        let body = &frame[HEADER_BYTES..frame.len() - 1];
        assert_eq!(WireMessage::decode_body(body), Err(WireError::Truncated));
    }

    #[test]
    fn non_finite_pose_is_rejected() {
        let mut body = vec![0x03u8];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        body.extend_from_slice(&0f64.to_bits().to_le_bytes());
        body.extend_from_slice(&0f64.to_bits().to_le_bytes());
        body.extend_from_slice(&0f64.to_bits().to_le_bytes());
        assert_eq!(
            WireMessage::decode_body(&body),
            Err(WireError::BadValue("t_ms"))
        );
    }

    #[test]
    fn welcome_with_bad_token_length_is_rejected() {
        let msg = WireMessage::Welcome {
            room: 1,
            player: 0,
            budget_ms: 16.7,
            token: sample_token(),
        };
        let mut body = Vec::new();
        msg.encode_body(&mut body);
        // Chopped token, down to none at all (the retired tokenless
        // layout): every short tail is truncated.
        for cut in 1..=TOKEN_BYTES {
            let short = &body[..body.len() - cut];
            assert_eq!(WireMessage::decode_body(short), Err(WireError::Truncated));
        }
        // Token with junk appended.
        let mut long = body.clone();
        long.push(0xFF);
        assert_eq!(
            WireMessage::decode_body(&long),
            Err(WireError::TrailingBytes)
        );
    }

    #[test]
    fn truncated_resume_token_is_rejected() {
        let msg = WireMessage::Resume {
            proto: PROTO_VERSION,
            token: sample_token(),
        };
        let frame = msg.encode_frame();
        let body = &frame[HEADER_BYTES..frame.len() - 1];
        assert_eq!(WireMessage::decode_body(body), Err(WireError::Truncated));
    }

    #[test]
    fn resume_reject_reasons_are_total() {
        for reason in [
            ResumeRejectReason::Expired,
            ResumeRejectReason::Unknown,
            ResumeRejectReason::Malformed,
        ] {
            let msg = WireMessage::ResumeReject { reason };
            let frame = msg.encode_frame();
            assert_eq!(
                WireMessage::decode_body(&frame[HEADER_BYTES..]).unwrap(),
                msg
            );
        }
        let body = [tag::RESUME_REJECT, 9];
        assert_eq!(
            WireMessage::decode_body(&body),
            Err(WireError::BadValue("resume reject reason"))
        );
    }

    #[test]
    fn game_codes_are_stable_and_total() {
        for game in GameId::ALL {
            assert_eq!(game_from_wire(game_to_wire(game)).unwrap(), game);
        }
        assert_eq!(game_from_wire(200), Err(WireError::BadGame(200)));
    }
}
