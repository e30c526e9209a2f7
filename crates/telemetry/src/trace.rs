//! Chrome `trace_event` export and validation.
//!
//! [`chrome_trace_json`] serializes spans and frame records into the
//! Chrome trace-event JSON format (the `{"traceEvents": [...]}` object
//! form), loadable directly in `chrome://tracing` or Perfetto. Rooms
//! become process lanes, players and render bands become tracks, and
//! every frame event carries its full stage decomposition in `args` so
//! a selected slice shows exactly where the budget went.
//!
//! The workspace vendors no JSON library, so the writer emits JSON by
//! hand and [`parse_json`] is a small recursive-descent parser used by
//! [`validate_chrome_trace`] — the CI gate that re-parses an emitted
//! trace and checks each frame's stage decomposition re-combines to the
//! event's duration within 1%.

use crate::sink::{CounterEvent, SpanEvent};
use crate::summary::{FrameRecord, Stage};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Trace process lane for fleet-scope spans (epoch ticks, farm sweeps).
pub const FLEET_PID: u32 = 0;

/// Trace process lane for wall-clock kernel spans (render bands of
/// measurement passes), kept apart from the simulated-time lanes.
pub const KERNEL_PID: u32 = 10_000;

/// Trace process lane for the socket serving plane (`coterie-server`
/// accept/read/service/write spans and its gauges), wall-clock time.
pub const SERVE_PID: u32 = 20_000;

/// Base of the shard-worker process lanes: worker `w` of a sharded
/// fleet puts its worker-scope spans (room ticks, exchange work, store
/// gauges) on pid `SHARD_PID_BASE + w`. A merged multi-worker trace
/// then shows one `shard-w` lane per process next to the room lanes.
pub const SHARD_PID_BASE: u32 = 30_000;

/// Thread lane reserved for room-level service spans (store lookups,
/// prefetch admission) inside a room's process lane, above any player
/// track. Player tids must stay below this — [`player_tid`] checks.
pub const SERVICE_TID: u32 = 9_999;

/// Thread lane reserved for the pre-render farm's drain spans inside
/// the fleet process lane, above any room-tick track. Room tids must
/// stay below this — [`room_tid`] checks.
pub const FARM_TID: u32 = 10_000;

/// Whether `room` has a collision-free process lane: `room + 1` must
/// stay below [`KERNEL_PID`].
pub fn room_lane_valid(room: u32) -> bool {
    room + 1 < KERNEL_PID
}

/// Whether `player` has a collision-free thread lane below
/// [`SERVICE_TID`].
pub fn player_lane_valid(player: u32) -> bool {
    player < SERVICE_TID
}

/// Whether a room-tick track `room` stays below [`FARM_TID`].
pub fn room_tid_valid(room: u32) -> bool {
    room < FARM_TID
}

/// The trace lane a room's spans and frames live in.
///
/// Checked allocation: beyond ~10 000 rooms the lane would silently
/// collide with [`KERNEL_PID`]; debug builds catch that here instead
/// of producing a merged, unreadable trace.
pub fn room_pid(room: u32) -> u32 {
    debug_assert!(
        room_lane_valid(room),
        "room {room} collides with the kernel trace lane"
    );
    room + 1
}

/// The player's thread lane inside its room's process lane. Checked:
/// beyond ~9 000 players per room the lane would silently collide with
/// [`SERVICE_TID`].
pub fn player_tid(player: u32) -> u32 {
    debug_assert!(
        player_lane_valid(player),
        "player {player} collides with the room service trace lane"
    );
    player
}

/// A room's tick track inside the fleet process lane. Checked: beyond
/// ~10 000 rooms the track would silently collide with [`FARM_TID`].
pub fn room_tid(room: u32) -> u32 {
    debug_assert!(
        room_tid_valid(room),
        "room {room} collides with the farm trace lane"
    );
    room
}

/// The trace lane of shard worker `w`'s worker-scope spans.
pub fn shard_pid(worker: u32) -> u32 {
    SHARD_PID_BASE + worker
}

fn pid_name(pid: u32) -> String {
    match pid {
        FLEET_PID => "fleet".to_string(),
        KERNEL_PID => "kernels".to_string(),
        SERVE_PID => "serve".to_string(),
        p if p >= SHARD_PID_BASE => format!("shard-{}", p - SHARD_PID_BASE),
        p => format!("room-{}", p - 1),
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes a finite JSON number with fixed sub-microsecond precision
/// (non-finite values, which a well-formed pipeline never produces,
/// serialize as 0 so the output always parses).
fn push_num(out: &mut String, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    let text = format!("{v:.4}");
    let trimmed = text.trim_end_matches('0').trim_end_matches('.');
    out.push_str(if trimmed.is_empty() || trimmed == "-" {
        "0"
    } else {
        trimmed
    });
}

fn push_event_head(
    out: &mut String,
    name: &str,
    cat: &str,
    ts_ms: f64,
    dur_ms: f64,
    pid: u32,
    tid: u32,
) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    out.push_str("\",\"cat\":\"");
    escape_into(out, cat);
    out.push_str("\",\"ph\":\"X\",\"ts\":");
    push_num(out, ts_ms * 1000.0);
    out.push_str(",\"dur\":");
    push_num(out, (dur_ms * 1000.0).max(0.0));
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
}

/// Serializes spans and frames into Chrome trace-event JSON.
///
/// Frame events are `ph:"X"` slices named `frame` on
/// (`room_pid(room)`, player) tracks, with the full stage decomposition
/// in `args`; spans keep the lane their instrumenter chose. Metadata
/// events name every process lane so Perfetto shows `room-N` instead
/// of bare pids. Output is deterministic for deterministic inputs.
pub fn chrome_trace_json(spans: &[SpanEvent], frames: &[FrameRecord], budget_ms: f64) -> String {
    chrome_trace_json_full(spans, frames, &[], budget_ms)
}

/// [`chrome_trace_json`] plus counter/gauge samples: each
/// [`CounterEvent`] becomes a `ph:"C"` event, which trace viewers
/// render as a stepped area chart of the value over time (store
/// occupancy, egress-queue depth, live connections).
pub fn chrome_trace_json_full(
    spans: &[SpanEvent],
    frames: &[FrameRecord],
    counters: &[CounterEvent],
    budget_ms: f64,
) -> String {
    let mut pids: BTreeSet<u32> = BTreeSet::new();
    for s in spans {
        pids.insert(s.track.pid);
    }
    for f in frames {
        pids.insert(room_pid(f.room));
    }
    for c in counters {
        pids.insert(c.track.pid);
    }

    let mut out = String::with_capacity(256 * (spans.len() + frames.len()) + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    for pid in &pids {
        sep(&mut out);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid}");
        out.push_str(",\"args\":{\"name\":\"");
        escape_into(&mut out, &pid_name(*pid));
        out.push_str("\"}}");
    }

    for f in frames {
        sep(&mut out);
        push_event_head(
            &mut out,
            "frame",
            "frame",
            f.start_ms,
            f.attributed_ms(),
            room_pid(f.room),
            f.player,
        );
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"frame\":{},", f.frame);
        for stage in Stage::ATTRIBUTED {
            out.push('"');
            out.push_str(stage.name());
            out.push_str("_ms\":");
            push_num(&mut out, f.stage_ms(stage));
            out.push(',');
        }
        out.push_str("\"critical_ms\":");
        push_num(&mut out, f.critical_ms);
        out.push_str(",\"attributed_ms\":");
        push_num(&mut out, f.attributed_ms());
        let _ = write!(
            out,
            ",\"model\":\"{}\",\"dominant\":\"{}\",\"over_budget\":{}}}}}",
            f.model.name(),
            f.dominant().name(),
            f.over_budget(budget_ms),
        );
    }

    for s in spans {
        sep(&mut out);
        push_event_head(
            &mut out,
            s.name,
            s.stage.name(),
            s.start_ms,
            s.dur_ms,
            s.track.pid,
            s.track.tid,
        );
        let _ = write!(out, ",\"args\":{{\"frame\":{}}}}}", s.frame);
    }

    for c in counters {
        sep(&mut out);
        out.push_str("{\"name\":\"");
        escape_into(&mut out, c.name);
        out.push_str("\",\"ph\":\"C\",\"ts\":");
        push_num(&mut out, c.t_ms * 1000.0);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", c.track.pid, c.track.tid);
        out.push_str(",\"args\":{\"value\":");
        push_num(&mut out, c.value);
        out.push_str("}}");
    }

    out.push_str("\n]}");
    out
}

/// A parsed JSON value (just enough JSON for trace validation — the
/// workspace vendors no JSON crate).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(_) => self.parse_number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both
                    // are ASCII and the input is a &str, so the run is
                    // whole characters; checking only the run keeps the
                    // parse linear in the document's length.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let run = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid utf8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] verified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCheck {
    /// Total trace events (metadata included).
    pub events: usize,
    /// Frame slices checked.
    pub frames: usize,
    /// Counter (`ph:"C"`) samples checked.
    pub counters: usize,
    /// Worst relative error between a frame's `dur` and its stage
    /// decomposition re-combined under its model.
    pub max_rel_err: f64,
}

/// Parses an emitted trace and checks its structural invariants: the
/// document is valid JSON with a `traceEvents` array, every `ph:"X"`
/// slice has finite non-negative `ts`/`dur`, and every frame slice's
/// stage decomposition, re-combined under its declared attribution
/// model, matches the slice duration within 1% (the CI gate).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("trace has no traceEvents array")?;
    let mut frames = 0usize;
    let mut counters = 0usize;
    let mut max_rel_err = 0.0f64;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        if ph == "C" {
            let ts = ev.get("ts").and_then(|v| v.as_f64());
            let value = ev
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_f64());
            let (Some(ts), Some(value)) = (ts, value) else {
                return Err(format!("event {i}: C sample without ts/args.value"));
            };
            if !ts.is_finite() || !value.is_finite() {
                return Err(format!("event {i}: non-finite counter sample"));
            }
            counters += 1;
            continue;
        }
        if ph != "X" {
            continue;
        }
        let ts = ev.get("ts").and_then(|v| v.as_f64());
        let dur = ev.get("dur").and_then(|v| v.as_f64());
        let (Some(ts), Some(dur)) = (ts, dur) else {
            return Err(format!("event {i}: X slice without ts/dur"));
        };
        if !ts.is_finite() || !dur.is_finite() || dur < 0.0 {
            return Err(format!("event {i}: non-finite or negative ts/dur"));
        }
        if ev.get("name").and_then(|v| v.as_str()) != Some("frame") {
            continue;
        }
        frames += 1;
        let args = ev
            .get("args")
            .ok_or(format!("event {i}: frame without args"))?;
        let stage = |key: &str| -> Result<f64, String> {
            args.get(key)
                .and_then(|v| v.as_f64())
                .ok_or(format!("event {i}: frame missing {key}"))
        };
        let render = stage("render_ms")?;
        let decode = stage("decode_ms")?;
        let net = stage("net_ms")?;
        let sync = stage("sync_ms")?;
        let cache = stage("cache_ms")?;
        let compose = stage("compose_ms")?;
        let model = args.get("model").and_then(|v| v.as_str()).unwrap_or("");
        let recombined = match model {
            "parallel" => render.max(decode).max(net).max(sync).max(cache) + compose,
            "sequential" => render + decode + net + sync + cache + compose,
            other => return Err(format!("event {i}: unknown model '{other}'")),
        };
        let dur_ms = dur / 1000.0;
        let rel = (recombined - dur_ms).abs() / dur_ms.max(1e-6);
        max_rel_err = max_rel_err.max(rel);
        if rel > 0.01 {
            return Err(format!(
                "event {i}: stage sum {recombined:.4} ms deviates {:.2}% from slice {dur_ms:.4} ms",
                rel * 100.0
            ));
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        frames,
        counters,
        max_rel_err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TrackId;
    use crate::summary::AttributionModel;

    #[test]
    fn lane_allocator_boundaries_are_exact() {
        // Rooms: the last valid room pid sits directly under the
        // kernel lane; one past it would collide.
        assert!(room_lane_valid(KERNEL_PID - 2));
        assert_eq!(room_pid(KERNEL_PID - 2), KERNEL_PID - 1);
        assert!(!room_lane_valid(KERNEL_PID - 1));
        // Players: the last valid tid sits directly under SERVICE_TID.
        assert!(player_lane_valid(SERVICE_TID - 1));
        assert_eq!(player_tid(SERVICE_TID - 1), SERVICE_TID - 1);
        assert!(!player_lane_valid(SERVICE_TID));
        // Room-tick tracks: directly under FARM_TID.
        assert!(room_tid_valid(FARM_TID - 1));
        assert_eq!(room_tid(FARM_TID - 1), FARM_TID - 1);
        assert!(!room_tid_valid(FARM_TID));
    }

    #[test]
    #[should_panic(expected = "collides with the kernel trace lane")]
    #[cfg(debug_assertions)]
    fn room_lane_collision_is_caught_in_debug() {
        let _ = room_pid(KERNEL_PID - 1);
    }

    #[test]
    #[should_panic(expected = "collides with the room service trace lane")]
    #[cfg(debug_assertions)]
    fn player_lane_collision_is_caught_in_debug() {
        let _ = player_tid(SERVICE_TID);
    }

    fn frame(room: u32, n: u64) -> FrameRecord {
        FrameRecord {
            room,
            player: 0,
            frame: n,
            start_ms: n as f64 * 16.7,
            render_ms: 9.0,
            decode_ms: 11.0,
            net_ms: 0.0,
            sync_ms: 2.5,
            cache_ms: 0.3,
            compose_ms: 2.0,
            critical_ms: 13.0,
            model: AttributionModel::Parallel,
        }
    }

    #[test]
    fn emitted_trace_parses_and_validates() {
        let spans = vec![SpanEvent {
            track: TrackId { pid: 1, tid: 7 },
            stage: Stage::Render,
            name: "band",
            start_ms: 0.5,
            dur_ms: 3.25,
            frame: 1,
        }];
        let frames = vec![frame(0, 1), frame(1, 2)];
        let json = chrome_trace_json(&spans, &frames, 16.7);
        let check = validate_chrome_trace(&json).expect("trace must validate");
        assert_eq!(check.frames, 2);
        // 3 process_name metadata (room-0, room-1, span pid 1=room-0
        // already counted) + 2 frames + 1 span.
        assert!(check.events >= 5, "events {}", check.events);
        assert!(check.max_rel_err < 0.01);
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("room-0"));
    }

    #[test]
    fn counter_events_export_and_validate() {
        let counters = vec![
            CounterEvent {
                track: TrackId {
                    pid: SERVE_PID,
                    tid: 0,
                },
                name: "egress-queue-bytes",
                t_ms: 1.0,
                value: 4096.0,
            },
            CounterEvent {
                track: TrackId {
                    pid: SERVE_PID,
                    tid: 0,
                },
                name: "connections",
                t_ms: 2.5,
                value: 3.0,
            },
        ];
        let json = chrome_trace_json_full(&[], &[frame(0, 1)], &counters, 16.7);
        let check = validate_chrome_trace(&json).expect("trace with counters must validate");
        assert_eq!(check.counters, 2);
        assert_eq!(check.frames, 1);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("serve"), "serve lane must be named");
    }

    #[test]
    fn non_finite_counter_fails_validation() {
        let c = CounterEvent {
            track: TrackId { pid: 0, tid: 0 },
            name: "depth",
            t_ms: 0.0,
            value: 1.0,
        };
        let json = chrome_trace_json_full(&[], &[], &[c], 16.7);
        let broken = json.replace("\"value\":1", "\"value\":\"oops\"");
        assert_ne!(json, broken);
        assert!(validate_chrome_trace(&broken).is_err());
    }

    #[test]
    fn trace_output_is_deterministic() {
        let frames = vec![frame(0, 1), frame(0, 2)];
        let a = chrome_trace_json(&[], &frames, 16.7);
        let b = chrome_trace_json(&[], &frames, 16.7);
        assert_eq!(a, b);
    }

    #[test]
    fn tampered_stage_sum_fails_validation() {
        let frames = vec![frame(0, 1)];
        let json = chrome_trace_json(&[], &frames, 16.7);
        // Inflate one stage so the decomposition no longer matches.
        let broken = json.replace("\"decode_ms\":11,", "\"decode_ms\":99,");
        assert_ne!(json, broken, "replacement must hit");
        assert!(validate_chrome_trace(&broken).is_err());
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse_json(r#"{"a": [1, -2.5e1, true, null, "x\n\"yA"], "b": {"c": 3}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(3.0));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[4].as_str(), Some("x\n\"yA"));
    }

    #[test]
    fn parser_copies_multibyte_runs_whole() {
        let v = parse_json(r#"["µs → ms \"q\" é", "aéb"]"#).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_str(), Some("µs → ms \"q\" é"));
        assert_eq!(arr[1].as_str(), Some("aéb"));
        assert!(parse_json("\"µs").is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn sequential_frames_validate_as_sums() {
        let mut f = frame(0, 1);
        f.model = AttributionModel::Sequential;
        let json = chrome_trace_json(&[], &[f], 16.7);
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.frames, 1);
    }

    #[test]
    fn non_finite_numbers_never_reach_the_output() {
        let mut f = frame(0, 1);
        f.critical_ms = f64::NAN;
        let json = chrome_trace_json(&[], &[f], 16.7);
        assert!(validate_chrome_trace(&json).is_ok());
        assert!(!json.contains("NaN"));
    }
}
