//! Per-connection state: read assembly, session state machine, the
//! inbox of messages not yet handled, and the bounded egress queue.
//!
//! # Backpressure policy: defer the pose, then discard the oldest
//!
//! A reply is produced only when it can be queued. A read pass decodes
//! everything the socket holds into the connection's *inbox*;
//! [`Connection::serve_pending`] takes messages from it in arrival order
//! while the egress queue has room (`queued_bytes < limit`) and goes on
//! with the rest once the socket has drained some of the queue. A
//! waiting pose costs its decoded size (about 100 bytes), not a rendered
//! and encoded frame, and its frame is looked up when it can be sent.
//!
//! Reading never pauses while replies wait: a peer blocked in `write`
//! never gets to its `read`, so a server that stopped reading would
//! deadlock against it. Memory is bounded all the same. The egress queue
//! holds less than `limit` bytes when a message is handled, so at most
//! `limit` plus that one message's replies. The inbox holds at most
//! `limit` bytes of messages by in-memory size; past that the *oldest
//! pending pose* is discarded and counted in `frames_dropped` (in VR the
//! stale pose is the one to lose), and a peer that fills it with
//! anything else while leaving its replies unread has left the protocol.
//!
//! Poses that waited or were discarded feed the room's quality
//! controller: replies backing up mean the current scale is too much for
//! the link, the paper's degrade trigger (ship smaller frames until it
//! recovers).
//!
//! # Egress: segments, written together
//!
//! The queue holds segments, owned bytes (a control message, a frame's
//! header) or a frame's payload shared with the payload cache, and
//! `queued_bytes` counts their wire bytes. A flush is one `writev` of the
//! queue's head, repeated until the queue is empty or the socket full; a
//! partial write ends anywhere, between a header and its body included.
//! A serve pass flushes (a) when the inbox is exhausted, (b) before it
//! concludes there is no room, and (c) right after a reply that was
//! *rendered*: cached replies cost a microsecond each and leave in one
//! syscall, a rendered one cost a hundred and is not held for the renders
//! behind it. A pose has *waited* only once a flush left the queue at or
//! over the limit, never because its batch is not yet written (that
//! reading degraded healthy rooms after every full batch).

use crate::stream::Stream;
use bytes::Bytes;
use coterie_net::wire::{FrameAssembler, WireMessage, FRAME_HEADER_BYTES, TOKEN_BYTES};
use coterie_world::GameId;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::mem::size_of;

/// Segments one `writev` takes: a batch of 32 frames, header and payload.
const WRITEV_SEGMENTS: usize = 64;

/// Where a connection is in the session protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Joined a room; poses flow in, frames flow out.
    Active {
        /// Game being served.
        game: GameId,
        /// Room joined.
        room: u32,
        /// Player id within the room.
        player: u32,
    },
    /// Goodbye queued; close once the egress queue flushes.
    Draining,
    /// Finished — the event loop should deregister and drop it.
    Closed,
}

/// How a read pass ended; the messages it decoded are in the inbox.
#[derive(Debug, PartialEq)]
pub enum ReadOutcome {
    /// The socket is read dry and the peer is still open.
    Progress,
    /// The peer closed its write half (EOF after any final messages).
    Eof,
    /// The peer left the protocol — bytes that do not decode, or an inbox
    /// over budget with no pose to discard and no egress room — drop it.
    Protocol,
}

/// A pending message's size in memory, its cost against the inbox budget.
fn pending_cost(msg: &WireMessage) -> usize {
    let heap = match msg {
        WireMessage::Frame { payload, .. } => payload.len(),
        _ => 0,
    };
    size_of::<WireMessage>() + heap
}

/// One run of bytes in the egress queue: a control message, a frame's
/// header, or a frame's payload, shared with whoever else holds it.
#[derive(Debug)]
enum Segment {
    Owned(Vec<u8>),
    Header([u8; FRAME_HEADER_BYTES]),
    Shared(Bytes),
}

impl std::ops::Deref for Segment {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Segment::Owned(bytes) => bytes,
            Segment::Header(bytes) => bytes,
            Segment::Shared(bytes) => bytes,
        }
    }
}

/// One accepted connection, over a [`Stream`] anywhere but in tests.
#[derive(Debug)]
pub struct Connection<S = Stream> {
    stream: S,
    assembler: FrameAssembler,
    state: ConnState,
    /// No segment is empty.
    queue: VecDeque<Segment>,
    queued_bytes: usize,
    /// Bytes of `queue.front()` already written to the socket.
    front_written: usize,
    /// The byte budget of the egress queue and, again, of the inbox.
    limit_bytes: usize,
    /// Decoded messages not yet handled, oldest first.
    inbox: VecDeque<WireMessage>,
    /// Sum of [`pending_cost`] over `inbox`.
    inbox_bytes: usize,
    /// Leading inbox messages already passed over for lack of room.
    waited: usize,
    /// Whether the event loop has `EPOLLOUT` registered for the socket.
    pub epollout_armed: bool,
    /// Scale the client was last told about (per-mille); a change
    /// queues a `Degrade` notice on the next interaction.
    pub last_notified_scale_pm: u16,
    /// Protocol version the client announced in `Hello`/`Resume`
    /// (0 until the handshake lands). Gates v3-only behaviour: only
    /// proto >= 3 connections are issued reconnect tokens or parked on
    /// disconnect.
    pub proto: u16,
    /// The reconnect token issued in this connection's `Welcome`
    /// (v3 clients only); the key its session parks under if the
    /// socket dies.
    pub token: Option<[u8; TOKEN_BYTES]>,
    /// Poses discarded from a full inbox, frames refused by a full queue.
    pub frames_dropped: u64,
    /// Frames successfully queued.
    pub frames_queued: u64,
    /// Poses received.
    pub poses_received: u64,
    /// Payload bytes written to the socket.
    pub bytes_written: u64,
    /// High-water mark of `queued_bytes`.
    pub peak_queue_bytes: usize,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps an accepted (already non-blocking) stream.
    pub fn new(stream: S, limit_bytes: usize) -> Self {
        Connection {
            stream,
            assembler: FrameAssembler::new(),
            state: ConnState::Handshake,
            queue: VecDeque::new(),
            queued_bytes: 0,
            front_written: 0,
            limit_bytes,
            inbox: VecDeque::new(),
            inbox_bytes: 0,
            waited: 0,
            epollout_armed: false,
            last_notified_scale_pm: 1000,
            proto: 0,
            token: None,
            frames_dropped: 0,
            frames_queued: 0,
            poses_received: 0,
            bytes_written: 0,
            peak_queue_bytes: 0,
        }
    }

    /// The protocol state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Moves the protocol state.
    pub fn set_state(&mut self, state: ConnState) {
        self.state = state;
    }

    /// The wrapped stream (for raw-fd registration).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Bytes currently queued for egress.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Whether the egress queue is fully flushed.
    pub fn egress_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the egress queue takes one more message's replies; an empty
    /// one always does.
    pub fn has_room(&self) -> bool {
        self.queued_bytes < self.limit_bytes.max(1)
    }

    /// Queues a frame delivery, its payload copied once. Returns `false`
    /// (and counts the drop) only when called without room, as for a
    /// peer already gone. Panics on anything but a `Frame`.
    pub fn enqueue_frame(&mut self, msg: &WireMessage) -> bool {
        let (header, payload) = msg.frame_parts().expect("enqueue_frame takes a Frame");
        self.enqueue_frame_parts(header, Bytes::copy_from_slice(payload))
    }

    /// [`Connection::enqueue_frame`] for a sender that holds the payload:
    /// `header` is its `frame_header(..)`, the payload goes by reference.
    pub fn enqueue_frame_parts(
        &mut self,
        header: [u8; FRAME_HEADER_BYTES],
        payload: Bytes,
    ) -> bool {
        if !self.has_room() {
            self.frames_dropped += 1;
            return false;
        }
        self.push(Segment::Header(header));
        self.push(Segment::Shared(payload));
        self.frames_queued += 1;
        true
    }

    /// Queues a control message: a few bytes that answer a handled
    /// message or end the session, so they need no bound of their own.
    pub fn enqueue_control(&mut self, msg: &WireMessage) {
        self.push(Segment::Owned(msg.encode_frame()));
    }

    /// Hands `handle` the pending messages in arrival order, each with
    /// whether it had to wait for room, while their replies can be
    /// queued: there is room, or `peer_gone` and nothing queued will be
    /// read. After goodbye nothing is answered. `handle` returns whether
    /// its reply was rendered and so leaves at once (module doc). The
    /// rest of the inbox is for the next pass. `Err`: the socket is dead.
    pub fn serve_pending(
        &mut self,
        peer_gone: bool,
        mut handle: impl FnMut(&mut Self, WireMessage, bool) -> bool,
    ) -> io::Result<()> {
        while !matches!(self.state, ConnState::Draining | ConnState::Closed) {
            if !(peer_gone || self.has_room()) {
                self.flush()?;
                if !self.has_room() {
                    self.waited = self.inbox.len();
                    return Ok(());
                }
            }
            let Some(msg) = self.inbox.pop_front() else {
                break;
            };
            self.inbox_bytes -= pending_cost(&msg);
            let waited = self.waited > 0;
            self.waited -= usize::from(waited);
            if handle(self, msg, waited) {
                self.flush()?;
            }
        }
        self.flush().map(drop)
    }

    /// Puts a decoded message in the inbox, discarding the oldest poses
    /// while over budget. `false`: still over, and the queue has no room.
    fn stage(&mut self, msg: WireMessage) -> bool {
        if matches!(self.state, ConnState::Draining | ConnState::Closed) {
            return true; // late traffic after our goodbye
        }
        self.poses_received += u64::from(matches!(msg, WireMessage::Pose { .. }));
        self.inbox_bytes += pending_cost(&msg);
        self.inbox.push_back(msg);
        while self.inbox_bytes > self.limit_bytes {
            let is_pose = |m: &WireMessage| matches!(m, WireMessage::Pose { .. });
            let Some(i) = self.inbox.iter().position(is_pose) else {
                return self.has_room();
            };
            self.inbox.remove(i);
            self.inbox_bytes -= size_of::<WireMessage>();
            self.waited -= usize::from(i < self.waited);
            self.frames_dropped += 1;
        }
        true
    }

    fn push(&mut self, segment: Segment) {
        if !segment.is_empty() {
            self.queued_bytes += segment.len();
            self.peak_queue_bytes = self.peak_queue_bytes.max(self.queued_bytes);
            self.queue.push_back(segment);
        }
    }

    /// Drains as much of the egress queue as the socket accepts, up to
    /// [`WRITEV_SEGMENTS`] segments a syscall. Returns `Ok(true)` if the
    /// queue is now empty.
    pub fn flush(&mut self) -> io::Result<bool> {
        while !self.queue.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITEV_SEGMENTS];
            for (slice, segment) in slices.iter_mut().zip(&self.queue) {
                *slice = IoSlice::new(segment);
            }
            slices[0] = IoSlice::new(&self.queue[0][self.front_written..]);
            let count = self.queue.len().min(WRITEV_SEGMENTS);
            match self.stream.write_vectored(&slices[..count]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.queued_bytes -= n;
                    self.bytes_written += n as u64;
                    // The write may have ended inside any segment.
                    self.front_written += n;
                    while let Some(front) = self.queue.front() {
                        if self.front_written < front.len() {
                            break;
                        }
                        self.front_written -= front.len();
                        self.queue.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Reads the socket dry, in one pass, into the inbox.
    pub fn read_ready(&mut self) -> ReadOutcome {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.assembler.push(&buf[..n]);
                    loop {
                        match self.assembler.next_message() {
                            Ok(None) => break,
                            Ok(Some(m)) => {
                                if !self.stage(m) {
                                    return ReadOutcome::Protocol;
                                }
                            }
                            Err(_) => return ReadOutcome::Protocol,
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Eof,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::os::unix::net::UnixStream;

    const LIMIT: usize = 1024;

    fn pair() -> (Connection, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (Connection::new(Stream::Unix(a), LIMIT), b)
    }

    /// A socket the tests script byte by byte: `sndbuf` bytes of send
    /// buffer that empty only as the peer reads, so a write ends wherever
    /// the test wants it to.
    #[derive(Debug, Default)]
    struct Pipe {
        /// Written by the peer, not yet read by the connection.
        inbound: VecDeque<u8>,
        /// Written by the connection, not yet read by the peer.
        in_flight: VecDeque<u8>,
        sndbuf: usize,
    }

    impl Pipe {
        fn peer_reads(&mut self, max: usize) -> Vec<u8> {
            let n = max.min(self.in_flight.len());
            self.in_flight.drain(..n).collect()
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inbound.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.inbound.len());
            for (slot, byte) in buf.iter_mut().zip(self.inbound.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.in_flight.len();
            if before == self.sndbuf {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            for buf in bufs {
                let take = buf.len().min(self.sndbuf - self.in_flight.len());
                self.in_flight.extend(&buf[..take]);
            }
            Ok(self.in_flight.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn piped(sndbuf: usize) -> Connection<Pipe> {
        let pipe = Pipe {
            sndbuf,
            ..Pipe::default()
        };
        Connection::new(pipe, LIMIT)
    }

    /// The peer sends poses `seqs` and the connection reads them.
    fn arrive(conn: &mut Connection<Pipe>, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            conn.stream.inbound.extend(pose_bytes(seq));
        }
        assert_eq!(conn.read_ready(), ReadOutcome::Progress);
    }

    /// The egress queue's bytes not yet on the socket, counted the slow way.
    fn unsent<S>(conn: &Connection<S>) -> usize {
        conn.queue.iter().map(|s| s.len()).sum::<usize>() - conn.front_written
    }

    fn frame_msg(seq: u64, payload_len: usize) -> WireMessage {
        WireMessage::Frame {
            seq,
            width: 8,
            height: 8,
            quality: 1,
            store_hit: false,
            scale_pm: 1000,
            payload: vec![0xAB; payload_len],
        }
    }

    fn pose_bytes(seq: u64) -> Vec<u8> {
        WireMessage::Pose {
            seq,
            t_ms: 0.0,
            x: 1.0,
            z: 2.0,
            yaw: 0.0,
        }
        .encode_frame()
    }

    /// What the event loop does with the inbox, a cached frame of
    /// `payload_len` bytes for every pose. Returns the poses answered,
    /// each with whether it had waited.
    fn serve<S: Read + Write>(conn: &mut Connection<S>, payload_len: usize) -> Vec<(u64, bool)> {
        let mut served = Vec::new();
        conn.serve_pending(false, |conn, msg, waited| {
            let WireMessage::Pose { seq, .. } = msg else {
                panic!("only poses were sent, got {msg:?}");
            };
            assert!(conn.enqueue_frame(&frame_msg(seq, payload_len)));
            served.push((seq, waited));
            false
        })
        .unwrap();
        served
    }

    #[test]
    fn a_frame_is_taken_while_there_is_room_and_control_always() {
        let (mut conn, _peer) = pair();
        // Room is judged before the frame, so the queue may end one
        // message past the limit, and no further.
        assert!(conn.enqueue_frame(&frame_msg(0, 600)));
        assert!(conn.enqueue_frame(&frame_msg(1, 600)));
        assert!(!conn.has_room());
        assert!(!conn.enqueue_frame(&frame_msg(2, 600)));
        assert_eq!((conn.frames_queued, conn.frames_dropped), (2, 1));
        let two_frames = conn.queued_bytes();
        assert!(two_frames > LIMIT && two_frames < LIMIT + 700);
        conn.enqueue_control(&WireMessage::Degrade { scale_pm: 750 });
        assert!(conn.queued_bytes() > two_frames);
        assert_eq!(conn.peak_queue_bytes, conn.queued_bytes());
    }

    #[test]
    fn queue_stays_bounded_against_a_dead_reader() {
        let (mut conn, mut peer) = pair();
        let fits = LIMIT / size_of::<WireMessage>();
        let (mut sent, mut served) = (0u64, 0u64);
        // 64 KiB frames fill the socket buffer within a few rounds; from
        // then on nothing is served and the inbox turns over.
        for _ in 0..40 {
            for _ in 0..fits {
                peer.write_all(&pose_bytes(sent)).unwrap();
                sent += 1;
            }
            assert_eq!(conn.read_ready(), ReadOutcome::Progress);
            served += serve(&mut conn, 64 * 1024).len() as u64;
            assert!(conn.inbox_bytes <= LIMIT);
        }
        assert!(!conn.has_room() && served > 0 && served < sent / 2);
        assert!(conn.peak_queue_bytes < LIMIT + 65 * 1024);
        assert_eq!(conn.inbox.len(), fits);
        assert_eq!(conn.poses_received, sent);
        assert_eq!(conn.frames_dropped, sent - served - fits as u64);
        // What is left are the newest poses, and each has waited.
        conn.queue.clear();
        (conn.queued_bytes, conn.front_written) = (0, 0);
        let newest: Vec<_> = (sent - fits as u64..sent).map(|seq| (seq, true)).collect();
        assert_eq!(serve(&mut conn, 0), newest);
    }

    #[test]
    fn an_unread_flood_of_anything_but_poses_is_an_overrun() {
        let (mut conn, mut peer) = pair();
        conn.enqueue_control(&frame_msg(0, 256 * 1024));
        assert!(!conn.flush().unwrap() && !conn.has_room());
        for _ in 0..LIMIT / size_of::<WireMessage>() + 1 {
            peer.write_all(&WireMessage::Bye.encode_frame()).unwrap();
        }
        assert_eq!(conn.read_ready(), ReadOutcome::Protocol);
        // With room the same flood is just a long read pass.
        let (mut conn, mut peer) = pair();
        for _ in 0..100 {
            peer.write_all(&WireMessage::Bye.encode_frame()).unwrap();
        }
        assert_eq!(conn.read_ready(), ReadOutcome::Progress);
        assert_eq!(conn.inbox.len(), 100);
        // Once goodbye is said nothing more is staged or handled.
        conn.set_state(ConnState::Draining);
        peer.write_all(&pose_bytes(0)).unwrap();
        assert_eq!(conn.read_ready(), ReadOutcome::Progress);
        assert_eq!(conn.inbox.len(), 100);
        conn.serve_pending(false, |_, msg, _| panic!("handled {msg:?} after goodbye"))
            .unwrap();
    }

    #[test]
    fn flush_writes_through_and_reader_reassembles() {
        let (mut conn, mut peer) = pair();
        let msg = frame_msg(1, 128);
        assert!(conn.enqueue_frame(&msg));
        assert!(conn.flush().unwrap());
        assert!(conn.egress_idle());

        let mut asm = FrameAssembler::new();
        let mut buf = [0u8; 4096];
        let n = peer.read(&mut buf).unwrap();
        asm.push(&buf[..n]);
        assert_eq!(asm.next_message().unwrap().unwrap(), msg);
    }

    #[test]
    fn read_ready_surfaces_messages_and_eof() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&WireMessage::Bye.encode_frame()).unwrap();
        assert_eq!(conn.read_ready(), ReadOutcome::Progress);
        let mut handled = Vec::new();
        let mut collect = |_: &mut Connection, msg, waited| {
            handled.push((msg, waited));
            false
        };
        conn.serve_pending(false, &mut collect).unwrap();
        conn.serve_pending(false, &mut collect).unwrap();
        assert_eq!(handled, [(WireMessage::Bye, false)]);
        drop(peer);
        assert_eq!(conn.read_ready(), ReadOutcome::Eof);
        assert_eq!(conn.inbox.len(), 0);
    }

    /// A write that stops after any number of bytes, and a second one
    /// that stops anywhere after that — inside a header, inside a
    /// payload, on the boundary between any two segments — loses and
    /// repeats nothing.
    #[test]
    fn a_partial_write_may_end_anywhere() {
        let replies = [
            frame_msg(0, 9),
            WireMessage::Degrade { scale_pm: 750 },
            frame_msg(1, 0),
            frame_msg(2, 40),
        ];
        let wire: Vec<u8> = replies.iter().flat_map(|m| m.encode_frame()).collect();
        for first in 0..=wire.len() {
            for second in first..=wire.len() {
                let mut conn = piped(0);
                for reply in &replies {
                    match reply {
                        WireMessage::Frame { .. } => assert!(conn.enqueue_frame(reply)),
                        control => conn.enqueue_control(control),
                    }
                }
                assert_eq!(conn.queued_bytes(), wire.len());
                for sndbuf in [first, second, wire.len()] {
                    conn.stream.sndbuf = sndbuf;
                    assert_eq!(conn.flush().unwrap(), sndbuf == wire.len());
                    assert_eq!(conn.stream.in_flight, &wire[..sndbuf]);
                    assert_eq!(conn.queued_bytes(), wire.len() - sndbuf);
                    assert_eq!(conn.queued_bytes(), unsent(&conn));
                }
                assert!(conn.egress_idle() && conn.bytes_written == wire.len() as u64);
            }
        }
    }

    /// A pose has waited only if a flush left the queue at or over the
    /// limit, not because its batch was still unwritten.
    #[test]
    fn only_a_full_socket_makes_a_pose_wait() {
        let frame = frame_msg(0, 600).encode_frame().len();
        let mut conn = piped(4 * frame);
        arrive(&mut conn, 0..8);
        // Two frames pass the limit; the flush before "no room" makes
        // room twice, and then the socket is full.
        let served: Vec<_> = (0..6).map(|seq| (seq, false)).collect();
        assert_eq!(serve(&mut conn, 600), served);
        assert_eq!(conn.stream.in_flight.len(), 4 * frame);
        assert_eq!(conn.queued_bytes(), 2 * frame);
        assert_eq!(conn.peak_queue_bytes, 2 * frame);
        // Nothing moves while the peer reads nothing; then the two
        // poses that were passed over are served, and say so.
        assert_eq!(serve(&mut conn, 600), []);
        conn.stream.peer_reads(4 * frame);
        assert_eq!(serve(&mut conn, 600), [(6, true), (7, true)]);
    }

    /// A rendered reply is on the socket before the next message is
    /// handled; the cached ones behind it wait for the end of the pass.
    #[test]
    fn a_rendered_reply_is_not_held_behind_the_batch() {
        let frame = frame_msg(0, 100).encode_frame().len();
        let mut conn = piped(usize::MAX);
        arrive(&mut conn, 0..7);
        let mut written_through = 0;
        conn.serve_pending(false, |conn, msg, _| {
            let WireMessage::Pose { seq, .. } = msg else {
                panic!("only poses were sent, got {msg:?}");
            };
            assert_eq!(conn.stream.in_flight.len(), written_through * frame);
            assert!(conn.enqueue_frame(&frame_msg(seq, 100)));
            // Poses 2 and 3 miss the cache.
            let rendered = seq == 2 || seq == 3;
            if rendered {
                written_through = seq as usize + 1;
            }
            rendered
        })
        .unwrap();
        assert_eq!(written_through, 4);
        assert_eq!(conn.stream.in_flight.len(), 7 * frame);
        assert!(conn.egress_idle());
    }

    /// One step of a connection's life, as the proptest draws it.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// The peer sends this many poses and the server reads them.
        Arrive(u64),
        /// The event loop handles what it may.
        Serve,
        /// The peer reads up to this many bytes of replies.
        PeerReads(usize),
        /// The socket's buffer stops being what limits a write.
        Widen,
    }

    fn step(max_read: usize) -> impl Strategy<Value = Step> {
        (0u8..3, 1u64..16, 1..max_read).prop_map(|(kind, poses, bytes)| match kind {
            0 => Step::Arrive(poses),
            1 => Step::Serve,
            _ => Step::PeerReads(bytes),
        })
    }

    /// Small replies against a small send buffer, so that writes end in
    /// and between headers; large ones against a large one.
    fn sizes() -> impl Strategy<Value = (usize, usize, Vec<Step>)> {
        (0usize..2).prop_flat_map(|large| {
            let scale = [1, 512][large];
            let steps = proptest::collection::vec(step(192 * scale), 1..120);
            (0..96 * scale, 1..256 * scale, steps)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of arrivals, serving and a peer reading at its
        /// own pace from a socket that takes only so much: the peer reads
        /// the replies' bytes, whole and in arrival order, the queue and
        /// the inbox stay inside the module's bounds, and every pose
        /// received is served, pending or discarded.
        #[test]
        fn deferred_poses_keep_order_and_bounds((payload_len, sndbuf, steps) in sizes()) {
            let mut conn = piped(sndbuf);
            let one_reply = frame_msg(0, payload_len).encode_frame().len();
            let (mut sent, mut served) = (0u64, 0u64);
            let (mut replied, mut read) = (Vec::new(), Vec::new());
            let end = [Step::Widen, Step::Serve, Step::Serve];
            for step in steps.into_iter().chain(end) {
                match step {
                    Step::Arrive(poses) => {
                        arrive(&mut conn, sent..sent + poses);
                        sent += poses;
                    }
                    Step::Serve => {
                        for (seq, _) in serve(&mut conn, payload_len) {
                            replied.extend(frame_msg(seq, payload_len).encode_frame());
                            served += 1;
                        }
                        prop_assert!(conn.inbox.is_empty() || !conn.has_room());
                    }
                    Step::PeerReads(bytes) => {
                        read.extend(conn.stream.peer_reads(bytes));
                        conn.flush().unwrap();
                    }
                    Step::Widen => conn.stream.sndbuf = usize::MAX,
                }
                let written = read.len() + conn.stream.in_flight.len();
                prop_assert_eq!(conn.queued_bytes(), replied.len() - written);
                prop_assert_eq!(conn.queued_bytes(), unsent(&conn));
                prop_assert_eq!(conn.bytes_written, written as u64);
                prop_assert!(read == replied[..read.len()], "the peer read other bytes");
                prop_assert!(conn.queued_bytes() < LIMIT + one_reply);
                prop_assert!(conn.peak_queue_bytes < LIMIT + one_reply);
                prop_assert!(conn.inbox_bytes <= LIMIT);
                prop_assert_eq!(conn.inbox_bytes, conn.inbox.len() * size_of::<WireMessage>());
                prop_assert_eq!(conn.poses_received, sent);
                prop_assert_eq!(sent, served + conn.inbox.len() as u64 + conn.frames_dropped);
                prop_assert_eq!(conn.frames_queued, served);
            }
            prop_assert!(conn.inbox.is_empty() && conn.egress_idle());
            read.extend(conn.stream.peer_reads(usize::MAX));
            prop_assert_eq!(read, replied);
        }
    }
}
