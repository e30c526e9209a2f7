//! Per-connection state: read assembly, session state machine, the
//! inbox of messages not yet handled, and the bounded egress queue.
//!
//! # Backpressure policy: defer the pose, then discard the oldest
//!
//! A reply is produced only when it can be queued. A read pass decodes
//! everything the socket holds into the connection's *inbox*; the event
//! loop takes messages from it in arrival order while the egress queue
//! has room (`queued_bytes < limit`) and goes on with the rest once the
//! socket has drained some of the queue. A waiting pose costs its
//! decoded size (about 100 bytes), not a rendered and encoded frame, and
//! its frame is looked up when it can be sent.
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

use crate::stream::Stream;
use coterie_net::wire::{FrameAssembler, ShardEntry, WireMessage, TOKEN_BYTES};
use coterie_world::GameId;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::mem::size_of;

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
    /// A peer worker's inter-shard exchange link (announced itself with
    /// `ShardHello`): shard-family messages flow in, nothing flows out.
    ShardPeer {
        /// The peer's shard id.
        shard: u16,
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
        WireMessage::Frame { payload, .. } | WireMessage::ShardFrame { payload, .. } => {
            payload.len()
        }
        WireMessage::ShardAdvert { entries, .. } => entries.len() * size_of::<ShardEntry>(),
        _ => 0,
    };
    size_of::<WireMessage>() + heap
}

/// One accepted connection.
#[derive(Debug)]
pub struct Connection {
    stream: Stream,
    assembler: FrameAssembler,
    state: ConnState,
    queue: VecDeque<Vec<u8>>,
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

impl Connection {
    /// Wraps an accepted (already non-blocking) stream.
    pub fn new(stream: Stream, limit_bytes: usize) -> Connection {
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
    pub fn stream(&self) -> &Stream {
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

    /// Queues a frame delivery. Returns `false` (and counts the drop)
    /// only when called without room, as for a peer already gone.
    pub fn enqueue_frame(&mut self, msg: &WireMessage) -> bool {
        if !self.has_room() {
            self.frames_dropped += 1;
            return false;
        }
        self.push_bytes(msg.encode_frame());
        self.frames_queued += 1;
        true
    }

    /// Queues a control message: a few bytes that answer a handled
    /// message or end the session, so they need no bound of their own.
    pub fn enqueue_control(&mut self, msg: &WireMessage) {
        self.push_bytes(msg.encode_frame());
    }

    /// Takes the oldest pending message, with whether it had to wait for
    /// room, if its replies can be queued: there is room, or `peer_gone`
    /// and nothing queued will be read. After goodbye nothing is answered.
    pub fn next_pending(&mut self, peer_gone: bool) -> Option<(WireMessage, bool)> {
        let done = matches!(self.state, ConnState::Draining | ConnState::Closed);
        if done || !(peer_gone || self.has_room()) {
            self.waited = self.inbox.len();
            return None;
        }
        let msg = self.inbox.pop_front()?;
        self.inbox_bytes -= pending_cost(&msg);
        let waited = self.waited > 0;
        self.waited -= usize::from(waited);
        Some((msg, waited))
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

    fn push_bytes(&mut self, bytes: Vec<u8>) {
        self.queued_bytes += bytes.len();
        self.peak_queue_bytes = self.peak_queue_bytes.max(self.queued_bytes);
        self.queue.push_back(bytes);
    }

    /// Drains as much of the egress queue as the socket accepts.
    /// Returns `Ok(true)` if the queue is now empty.
    pub fn flush(&mut self) -> io::Result<bool> {
        while let Some(front) = self.queue.front() {
            let remaining = &front[self.front_written..];
            match self.stream.write(remaining) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.front_written += n;
                    self.queued_bytes -= n;
                    self.bytes_written += n as u64;
                    if self.front_written == front.len() {
                        self.queue.pop_front();
                        self.front_written = 0;
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

    /// What the event loop does with the inbox, a frame of `payload_len`
    /// bytes for every pose. Returns the poses answered.
    fn serve(conn: &mut Connection, payload_len: usize) -> u64 {
        let mut served = 0;
        while let Some((msg, _)) = conn.next_pending(false) {
            let WireMessage::Pose { seq, .. } = msg else {
                panic!("only poses were sent, got {msg:?}");
            };
            assert!(conn.enqueue_frame(&frame_msg(seq, payload_len)));
            conn.flush().unwrap();
            served += 1;
        }
        served
    }

    /// Reads up to `max` bytes from the peer's end and returns the `seq`
    /// of every frame completed by them.
    fn peer_reads(peer: &mut UnixStream, asm: &mut FrameAssembler, max: usize) -> Vec<u64> {
        let mut buf = vec![0u8; max];
        let mut got = 0;
        while got < max {
            match peer.read(&mut buf[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("peer read: {e}"),
            }
        }
        asm.push(&buf[..got]);
        let mut seqs = Vec::new();
        while let Some(msg) = asm.next_message().unwrap() {
            match msg {
                WireMessage::Frame { seq, .. } => seqs.push(seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        seqs
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
            served += serve(&mut conn, 64 * 1024);
            assert!(conn.inbox_bytes <= LIMIT);
        }
        assert!(!conn.has_room() && served > 0 && served < sent / 2);
        assert!(conn.peak_queue_bytes < LIMIT + 65 * 1024);
        assert_eq!(conn.inbox.len(), fits);
        assert_eq!(conn.poses_received, sent);
        assert_eq!(conn.frames_dropped, sent - served - fits as u64);
        // What is left are the newest poses, and each has waited.
        conn.queue.clear();
        conn.queued_bytes = 0;
        for seq in sent - fits as u64..sent {
            match conn.next_pending(false) {
                Some((WireMessage::Pose { seq: got, .. }, true)) => assert_eq!(got, seq),
                other => panic!("expected pose {seq} to have waited, got {other:?}"),
            }
        }
        assert_eq!(conn.next_pending(false), None);
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
        assert_eq!(conn.next_pending(false), None);
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
        assert_eq!(conn.next_pending(false), Some((WireMessage::Bye, false)));
        assert_eq!(conn.next_pending(false), None);
        drop(peer);
        assert_eq!(conn.read_ready(), ReadOutcome::Eof);
        assert_eq!(conn.inbox.len(), 0);
    }

    /// One step of a connection's life, as the proptest draws it.
    #[derive(Debug, Clone)]
    enum Step {
        /// The peer sends this many poses and the server reads them.
        Arrive(usize),
        /// The event loop handles what it may.
        Serve,
        /// The peer reads up to this many bytes of replies.
        PeerReads(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..3, 1usize..16, 1usize..96 * 1024).prop_map(|(kind, poses, bytes)| match kind {
            0 => Step::Arrive(poses),
            1 => Step::Serve,
            _ => Step::PeerReads(bytes),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any interleaving of arrivals, serving and a peer reading at its
        /// own pace: replies leave in arrival order, the queue and the
        /// inbox stay inside the module's bounds, and every pose received
        /// is served, pending or discarded.
        #[test]
        fn deferred_poses_keep_order_and_bounds(
            steps in proptest::collection::vec(step(), 1..120),
            payload_len in 0usize..48 * 1024,
        ) {
            let (mut conn, mut peer) = pair();
            let mut asm = FrameAssembler::new();
            let one_reply = frame_msg(0, payload_len).encode_frame().len();
            let (mut sent, mut served) = (0u64, 0u64);
            let mut last_seen = None;
            for step in steps.into_iter().chain([Step::Serve]) {
                match step {
                    Step::Arrive(poses) => {
                        for _ in 0..poses {
                            peer.write_all(&pose_bytes(sent)).unwrap();
                            sent += 1;
                        }
                        prop_assert_eq!(conn.read_ready(), ReadOutcome::Progress);
                    }
                    Step::Serve => {
                        served += serve(&mut conn, payload_len);
                        prop_assert!(conn.inbox.is_empty() || !conn.has_room());
                    }
                    Step::PeerReads(bytes) => {
                        for seq in peer_reads(&mut peer, &mut asm, bytes) {
                            prop_assert!(last_seen < Some(seq), "{seq} after {last_seen:?}");
                            last_seen = Some(seq);
                        }
                        conn.flush().unwrap();
                    }
                }
                prop_assert!(conn.queued_bytes() < LIMIT + one_reply);
                prop_assert!(conn.peak_queue_bytes < LIMIT + one_reply);
                prop_assert!(conn.inbox_bytes <= LIMIT);
                prop_assert_eq!(conn.inbox_bytes, conn.inbox.len() * size_of::<WireMessage>());
                prop_assert_eq!(conn.poses_received, sent);
                prop_assert_eq!(sent, served + conn.inbox.len() as u64 + conn.frames_dropped);
                prop_assert_eq!(conn.frames_queued, served);
            }
        }
    }
}
