//! Length-prefixed wire framing for the fleet monitor.
//!
//! Every frame is `[u32 LE body_len][u32 LE fnv1a32(body)][body]`, where
//! the body is `[u8 kind][payload…]`. The checksum turns transport
//! corruption — which the chaos harness injects on purpose — into a typed
//! [`FrameError::Checksum`] instead of a silently misparsed reading, and
//! the length prefix is validated against the configured maximum *before*
//! any allocation, so an adversarial prefix can claim 4 GiB without the
//! decoder ever reserving it.
//!
//! Framing errors are fatal for the connection that produced them: after
//! a corrupt prefix the stream offset is unknowable, so the server closes
//! and the client reconnects (its retry policy owns that). The decoder
//! therefore stays permanently in the error state once poisoned.

use std::fmt;

/// Fixed prefix: 4-byte body length + 4-byte FNV-1a checksum of the body.
pub const HEADER_LEN: usize = 8;

/// Default upper bound on a frame body; readings at [`MAX_READINGS`] fit
/// with generous margin.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024;

/// Most voltage readings one `Readings` frame may carry.
pub const MAX_READINGS: usize = 4096;

/// Longest UTF-8 message an `Error` frame may carry.
pub const MAX_ERROR_MSG: usize = 512;

/// 32-bit FNV-1a over `bytes` — tiny, dependency-free, and plenty to
/// catch the single-byte flips and truncations chaos injects.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Why a byte sequence failed to decode. Every variant is a protocol
/// violation that ends the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the configured maximum frame size.
    TooLarge {
        /// Length the prefix claimed.
        len: usize,
        /// Configured maximum body length.
        max: usize,
    },
    /// The body checksum did not match the header checksum.
    Checksum {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum computed over the received body.
        actual: u32,
    },
    /// The body's kind byte names no known frame type.
    UnknownKind(u8),
    /// The body ended before its declared payload was complete.
    Truncated,
    /// The body continued past its declared payload.
    TrailingBytes,
    /// A `Readings` frame declared more than [`MAX_READINGS`] values.
    TooManyReadings(usize),
    /// An `Error` frame declared a message longer than [`MAX_ERROR_MSG`].
    MessageTooLong(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            Self::Checksum { expected, actual } => {
                write!(f, "frame checksum mismatch: header {expected:#010x}, body {actual:#010x}")
            }
            Self::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            Self::Truncated => write!(f, "frame body truncated"),
            Self::TrailingBytes => write!(f, "frame body has trailing bytes"),
            Self::TooManyReadings(n) => {
                write!(f, "readings frame declares {n} values (max {MAX_READINGS})")
            }
            Self::MessageTooLong(n) => {
                write!(f, "error message of {n} bytes (max {MAX_ERROR_MSG})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Bit flags carried by a [`Frame::Decision`].
pub mod decision_flags {
    /// The session's alarm is currently asserted.
    pub const ALARM: u8 = 1 << 0;
    /// This decision is the rising edge of an alarm.
    pub const RISING: u8 = 1 << 1;
    /// The session is degraded (load was shed before this decision).
    pub const DEGRADED: u8 = 1 << 2;
}

/// One protocol message. Integers are little-endian; voltages travel as
/// `f64::to_le_bytes` (bit-exact, NaN-preserving — validation is the
/// monitor's job, not the transport's).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open or resume the session for `(tenant, chip)`.
    /// The first `Hello` pins the connection to its tenant; later frames
    /// for other tenants are a protocol violation.
    Hello {
        /// Tenant the connection authenticates as.
        tenant: u64,
        /// Chip whose monitor session this opens.
        chip: u64,
    },
    /// Server → client: the session is open.
    HelloAck {
        /// Chip being acknowledged.
        chip: u64,
        /// True when the session resumed (in-memory or from checkpoint)
        /// rather than being created fresh.
        resumed: bool,
        /// Alarm state at ack time — lets a reconnecting client confirm a
        /// latched alarm survived the disconnect.
        alarmed: bool,
    },
    /// Client → server: one batch of sensor readings for `chip`.
    Readings {
        /// Chip the readings belong to.
        chip: u64,
        /// Client-assigned sequence number, echoed in the decision.
        seq: u64,
        /// Optional 64-bit trace ID stamped by the client
        /// ([`voltsense_telemetry::trace::trace_id`]). `None` encodes as
        /// the original v1 readings frame, so old peers interoperate
        /// unchanged; `Some` encodes as the version-bumped
        /// `KIND_READINGS_V2` body with the ID after `seq`.
        trace: Option<u64>,
        /// Sensor voltages, in the model's sensor order.
        values: Vec<f64>,
    },
    /// Server → client: the monitor's verdict for one readings batch.
    Decision {
        /// Chip the decision is for.
        chip: u64,
        /// Sequence number of the readings batch this answers.
        seq: u64,
        /// [`decision_flags`] bit set.
        flags: u8,
        /// Minimum predicted critical-node voltage.
        predicted_min: f64,
    },
    /// Server → client: the session is shedding load; back off.
    Busy {
        /// Chip whose readings were rejected.
        chip: u64,
        /// Suggested client backoff before retrying.
        retry_after_ms: u32,
    },
    /// Server → client: terminal session error (see [`error_code`]).
    Error {
        /// [`error_code`] discriminant.
        code: u8,
        /// Chip the error concerns (0 when not session-specific).
        chip: u64,
        /// Human-readable detail, at most [`MAX_ERROR_MSG`] bytes.
        message: String,
    },
}

/// Discriminants carried by [`Frame::Error`].
pub mod error_code {
    /// Readings arrived for a chip with no open session; re-`Hello`.
    pub const UNKNOWN_SESSION: u8 = 1;
    /// The session panicked and is quarantined.
    pub const QUARANTINED: u8 = 2;
    /// The connection broke the protocol (bad tenant, bad state).
    pub const PROTOCOL: u8 = 3;
    /// The monitor rejected the readings (wrong arity, etc.).
    pub const REJECTED: u8 = 4;
}

const KIND_HELLO: u8 = 1;
const KIND_READINGS: u8 = 2;
const KIND_DECISION: u8 = 3;
const KIND_BUSY: u8 = 4;
const KIND_ERROR: u8 = 5;
const KIND_HELLO_ACK: u8 = 6;
/// Version-bumped readings body: v1 layout plus a trailing-after-`seq`
/// 64-bit trace ID. A separate kind (not a flag bit) keeps v1 decoding
/// byte-for-byte untouched for old peers.
const KIND_READINGS_V2: u8 = 7;

impl Frame {
    /// Serialize into a complete wire frame (header + body), in a `Vec`
    /// sized exactly to the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body_len());
        self.encode_into(&mut out);
        out
    }

    /// Append the complete wire frame to `out`. Reserves the exact frame
    /// size once, writes the body after a placeholder header, then patches
    /// in the length and checksum: a reused `out` makes encoding
    /// allocation-free.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = open_frame(out, self.body_len());
        match self {
            Self::Hello { tenant, chip } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&chip.to_le_bytes());
            }
            Self::HelloAck { chip, resumed, alarmed } => {
                out.push(KIND_HELLO_ACK);
                out.extend_from_slice(&chip.to_le_bytes());
                out.push(u8::from(*resumed));
                out.push(u8::from(*alarmed));
            }
            Self::Readings { chip, seq, trace, values } => {
                put_readings(out, *chip, *seq, *trace, values);
            }
            Self::Decision { chip, seq, flags, predicted_min } => {
                out.push(KIND_DECISION);
                out.extend_from_slice(&chip.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(*flags);
                out.extend_from_slice(&predicted_min.to_le_bytes());
            }
            Self::Busy { chip, retry_after_ms } => {
                out.push(KIND_BUSY);
                out.extend_from_slice(&chip.to_le_bytes());
                out.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Self::Error { code, chip, message } => {
                let msg = &message.as_bytes()[..message.len().min(MAX_ERROR_MSG)];
                out.push(KIND_ERROR);
                out.push(*code);
                out.extend_from_slice(&chip.to_le_bytes());
                out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                out.extend_from_slice(msg);
            }
        }
        seal_frame(out, start);
    }

    /// Body length in bytes (kind byte included) of this frame's encoding.
    fn body_len(&self) -> usize {
        match self {
            Self::Hello { .. } => 1 + 8 + 8,
            Self::HelloAck { .. } => 1 + 8 + 1 + 1,
            Self::Readings { trace, values, .. } => readings_body_len(trace.is_some(), values.len()),
            Self::Decision { .. } => 1 + 8 + 8 + 1 + 8,
            Self::Busy { .. } => 1 + 8 + 4,
            Self::Error { message, .. } => 1 + 1 + 8 + 2 + message.len().min(MAX_ERROR_MSG),
        }
    }

    /// Decode one body (kind byte + payload, checksum already verified).
    /// `spare` is a pool of recycled readings buffers; the `Readings` arm
    /// pops one instead of allocating when the pool is non-empty, which is
    /// what keeps the steady-state decode path allocation-free. A
    /// `Readings` decode that finds the pool empty bumps `fresh`.
    fn decode_body(
        body: &[u8],
        spare: &mut Vec<Vec<f64>>,
        fresh: &mut u64,
    ) -> Result<Self, FrameError> {
        let mut r = Reader { bytes: body, pos: 0 };
        let kind = r.u8()?;
        let frame = match kind {
            KIND_HELLO => Self::Hello { tenant: r.u64()?, chip: r.u64()? },
            KIND_HELLO_ACK => Self::HelloAck {
                chip: r.u64()?,
                resumed: r.u8()? != 0,
                alarmed: r.u8()? != 0,
            },
            KIND_READINGS | KIND_READINGS_V2 => {
                let chip = r.u64()?;
                let seq = r.u64()?;
                let trace = if kind == KIND_READINGS_V2 { Some(r.u64()?) } else { None };
                let count = r.u32()? as usize;
                if count > MAX_READINGS {
                    return Err(FrameError::TooManyReadings(count));
                }
                // `count` is now bounded, and the body itself already
                // passed the frame-size cap: safe to (re)allocate.
                let raw = r.take(8 * count)?;
                let mut values = spare.pop().unwrap_or_else(|| {
                    *fresh += 1;
                    Vec::new()
                });
                values.clear();
                values.extend(raw.chunks_exact(8).map(|b| {
                    f64::from_le_bytes(b.try_into().expect("chunks_exact yields 8 bytes"))
                }));
                Self::Readings { chip, seq, trace, values }
            }
            KIND_DECISION => Self::Decision {
                chip: r.u64()?,
                seq: r.u64()?,
                flags: r.u8()?,
                predicted_min: r.f64()?,
            },
            KIND_BUSY => Self::Busy { chip: r.u64()?, retry_after_ms: r.u32()? },
            KIND_ERROR => {
                let code = r.u8()?;
                let chip = r.u64()?;
                let len = r.u16()? as usize;
                if len > MAX_ERROR_MSG {
                    return Err(FrameError::MessageTooLong(len));
                }
                let raw = r.take(len)?;
                Self::Error {
                    code,
                    chip,
                    message: String::from_utf8_lossy(raw).into_owned(),
                }
            }
            other => return Err(FrameError::UnknownKind(other)),
        };
        if r.pos != body.len() {
            return Err(FrameError::TrailingBytes);
        }
        Ok(frame)
    }
}

/// Append the readings frame `Frame::Readings { chip, seq, trace, values }`
/// would encode, straight from a borrowed `values` slice — the client's
/// send path, which has no owned `Vec` to put in a [`Frame`]. The same
/// body writer backs [`Frame::encode_into`], so the bytes are identical.
pub fn encode_readings_into(
    chip: u64,
    seq: u64,
    trace: Option<u64>,
    values: &[f64],
    out: &mut Vec<u8>,
) {
    let start = open_frame(out, readings_body_len(trace.is_some(), values.len()));
    put_readings(out, chip, seq, trace, values);
    seal_frame(out, start);
}

/// Body length of a readings frame: kind, chip, seq, the optional v2
/// trace ID, the count and the values.
fn readings_body_len(traced: bool, count: usize) -> usize {
    1 + 8 + 8 + if traced { 8 } else { 0 } + 4 + 8 * count
}

/// Write one readings body; untraced readings keep the v1 kind.
fn put_readings(out: &mut Vec<u8>, chip: u64, seq: u64, trace: Option<u64>, values: &[f64]) {
    out.push(if trace.is_some() { KIND_READINGS_V2 } else { KIND_READINGS });
    out.extend_from_slice(&chip.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    if let Some(id) = trace {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reserve room for a `body_len`-byte frame and write its placeholder
/// header; returns the frame's start offset for [`seal_frame`].
fn open_frame(out: &mut Vec<u8>, body_len: usize) -> usize {
    out.reserve(HEADER_LEN + body_len);
    let start = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    start
}

/// Patch the length and checksum of the frame starting at `start` over
/// the body written after its header.
fn seal_frame(out: &mut [u8], start: usize) {
    let (header, body) = out[start..].split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&fnv1a32(body).to_le_bytes());
}

/// Cursor over a frame body; every read is bounds-checked into
/// [`FrameError::Truncated`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.bytes.len() {
            return Err(FrameError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Incremental decoder over a byte stream with arbitrary chunking.
///
/// Feed raw bytes with [`push`](Self::push), then drain frames with
/// [`next`](Self::next). Decoded frames advance a read cursor instead of
/// shifting the buffer; `push` compacts the consumed prefix away once,
/// before appending, so draining N frames moves each byte at most once.
/// The retained buffer is therefore bounded by `HEADER_LEN + max_frame`
/// plus one push ([`retained`](Self::retained)) — oversized length
/// prefixes are rejected before the body is buffered or allocated. After
/// any error the decoder is poisoned: `next` keeps returning the same
/// error, because a corrupt prefix makes every later offset meaningless.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor: `buf[..start]` is decoded and awaits compaction.
    start: usize,
    max_frame: usize,
    poisoned: Option<FrameError>,
    /// Recycled readings buffers ([`recycle`](Self::recycle)); decoding a
    /// `Readings` frame reuses one instead of allocating.
    spare: Vec<Vec<f64>>,
    /// `Readings` decodes that found no recycled buffer and allocated.
    fresh_buffers: u64,
}

/// Most recycled readings buffers a decoder retains; beyond this,
/// [`FrameDecoder::recycle`] just drops the buffer.
const MAX_SPARE_BUFFERS: usize = 32;

impl FrameDecoder {
    /// Decoder accepting bodies up to `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: None,
            spare: Vec::new(),
            fresh_buffers: 0,
        }
    }

    /// `Readings` decodes so far that found no recycled buffer
    /// ([`recycle`](Self::recycle)) and allocated a fresh one.
    pub fn fresh_buffers(&self) -> u64 {
        self.fresh_buffers
    }

    /// Return a spent readings buffer for reuse by a later `Readings`
    /// decode. Callers that recycle every drained buffer make the
    /// steady-state decode path allocation-free (pinned by the fleet
    /// `alloc_gate` test); not recycling is always safe, just slower.
    pub fn recycle(&mut self, values: Vec<f64>) {
        if self.spare.len() < MAX_SPARE_BUFFERS {
            self.spare.push(values);
        }
    }

    /// Append raw stream bytes, first compacting away the frames already
    /// decoded. Ignored once the decoder is poisoned — the connection is
    /// already doomed, so don't grow the buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.drain(..self.start);
            self.start = 0;
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes pushed but not yet decoded (for backpressure accounting and
    /// the never-over-allocates property test).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Bytes the decoder holds, the decoded-but-uncompacted prefix
    /// included: what the `HEADER_LEN + max_frame` plus one push bound
    /// limits.
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes"; any `Err` is terminal for the
    /// stream (see the poisoning note on the type). Not an [`Iterator`]:
    /// the fallible `Result<Option<_>, _>` contract is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let unread = &self.buf[self.start..];
        if unread.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([unread[0], unread[1], unread[2], unread[3]]) as usize;
        if len > self.max_frame {
            return Err(self.poison(FrameError::TooLarge { len, max: self.max_frame }));
        }
        if unread.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let expected = u32::from_le_bytes([unread[4], unread[5], unread[6], unread[7]]);
        let body = &unread[HEADER_LEN..HEADER_LEN + len];
        let actual = fnv1a32(body);
        if actual != expected {
            return Err(self.poison(FrameError::Checksum { expected, actual }));
        }
        match Frame::decode_body(body, &mut self.spare, &mut self.fresh_buffers) {
            Ok(frame) => {
                self.start += HEADER_LEN + len;
                if self.start == self.buf.len() {
                    // Fully drained: reset for free instead of compacting.
                    self.buf.clear();
                    self.start = 0;
                }
                Ok(Some(frame))
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    fn poison(&mut self, err: FrameError) -> FrameError {
        self.buf.clear();
        self.start = 0;
        self.poisoned = Some(err.clone());
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let wire = frame.encode();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        assert_eq!(dec.next().unwrap(), Some(frame));
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_kind_roundtrips() {
        roundtrip(Frame::Hello { tenant: 7, chip: 42 });
        roundtrip(Frame::HelloAck { chip: 42, resumed: true, alarmed: false });
        roundtrip(Frame::Readings {
            chip: 1,
            seq: 99,
            trace: None,
            values: vec![0.95, 0.83, f64::NAN.min(0.9)],
        });
        roundtrip(Frame::Readings {
            chip: 1,
            seq: 100,
            trace: Some(0xdead_beef_cafe_f00d),
            values: vec![0.95, 0.83],
        });
        roundtrip(Frame::Decision {
            chip: 1,
            seq: 99,
            flags: decision_flags::ALARM | decision_flags::RISING,
            predicted_min: 0.791,
        });
        roundtrip(Frame::Busy { chip: 3, retry_after_ms: 250 });
        roundtrip(Frame::Error {
            code: error_code::UNKNOWN_SESSION,
            chip: 5,
            message: "no session".into(),
        });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Wire bytes of every kind, recorded from the encoder that grew a
    /// body `Vec` and copied it behind the header. Any change here is a
    /// wire-format change.
    #[test]
    fn encodings_match_golden_bytes() {
        let golden = [
            (
                Frame::Hello { tenant: 0x0102_0304_0506_0708, chip: 42 },
                "110000001e6be5590108070605040302012a00000000000000",
            ),
            (
                Frame::HelloAck { chip: 42, resumed: true, alarmed: false },
                "0b0000008231898c062a000000000000000100",
            ),
            (
                Frame::Readings {
                    chip: 7,
                    seq: 513,
                    trace: None,
                    values: vec![0.95, f64::NAN, -0.0, 0.83],
                },
                "35000000b58acf1b020700000000000000010200000000000004000000666666666666ee3f\
                 000000000000f87f00000000000000808fc2f5285c8fea3f",
            ),
            (
                Frame::Readings {
                    chip: 7,
                    seq: 514,
                    trace: Some(0xdead_beef_cafe_f00d),
                    values: vec![-0.0, f64::from_bits(0xfff8_0000_0000_0001), 1.5],
                },
                "350000003078e9f307070000000000000002020000000000000df0fecaefbeadde03000000\
                 0000000000000080010000000000f8ff000000000000f83f",
            ),
            (
                Frame::Readings { chip: 1, seq: 0, trace: None, values: vec![] },
                "1500000084496a71020100000000000000000000000000000000000000",
            ),
            (
                Frame::Decision { chip: 9, seq: 77, flags: 0b101, predicted_min: 0.8412 },
                "1a0000006f3f59fd0309000000000000004d00000000000000057aa52c431cebea3f",
            ),
            (
                Frame::Busy { chip: 3, retry_after_ms: 250 },
                "0d000000cab86686040300000000000000fa000000",
            ),
            (
                Frame::Error { code: 4, chip: 5, message: "no session".into() },
                "160000004c09637f050405000000000000000a006e6f2073657373696f6e",
            ),
        ];
        let mut reused = Vec::new();
        for (frame, want) in &golden {
            let wire = frame.encode();
            assert_eq!(hex(&wire), *want, "{frame:?}");
            assert_eq!(wire.capacity(), wire.len(), "encode sizes exactly: {frame:?}");
            // `encode_into` appends: the earlier bytes stay, the frame follows.
            let before = reused.clone();
            frame.encode_into(&mut reused);
            assert_eq!(&reused[..before.len()], before.as_slice());
            assert_eq!(hex(&reused[before.len()..]), *want, "{frame:?}");
            if let Frame::Readings { chip, seq, trace, values } = frame {
                let mut direct = vec![0xAA];
                encode_readings_into(*chip, *seq, *trace, values, &mut direct);
                assert_eq!(direct[0], 0xAA);
                assert_eq!(hex(&direct[1..]), *want, "{frame:?}");
            }
        }

        // An over-long message is cut to MAX_ERROR_MSG bytes on the wire.
        let message: String =
            (0..MAX_ERROR_MSG + 40).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let wire = Frame::Error { code: 3, chip: 11, message: message.clone() }.encode();
        assert_eq!(wire.len(), 532);
        assert_eq!(hex(&wire[..HEADER_LEN + 12]), "0c0200008404ebe905030b00000000000000\
                                                   0002");
        assert_eq!(&wire[HEADER_LEN + 12..], &message.as_bytes()[..MAX_ERROR_MSG]);
    }

    #[test]
    fn nan_readings_survive_the_wire_bit_exactly() {
        let wire = Frame::Readings { chip: 0, seq: 0, trace: None, values: vec![f64::NAN] }.encode();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        match dec.next().unwrap() {
            Some(Frame::Readings { values, .. }) => {
                assert_eq!(values[0].to_bits(), f64::NAN.to_bits());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_chunking_decodes_identically() {
        let frames = [
            Frame::Hello { tenant: 1, chip: 2 },
            Frame::Readings { chip: 2, seq: 0, trace: None, values: vec![0.9; 17] },
            Frame::Readings { chip: 2, seq: 1, trace: Some(41), values: vec![0.9; 3] },
            Frame::Busy { chip: 2, retry_after_ms: 10 },
        ];
        let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        for byte in wire {
            dec.push(&[byte]);
            while let Some(frame) = dec.next().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out.as_slice(), frames.as_slice());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering_a_body() {
        let mut dec = FrameDecoder::new(1024);
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 4]);
        dec.push(&wire);
        match dec.next() {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Poisoned: same error again, and pushes are dropped.
        dec.push(&[0; 64]);
        assert_eq!(dec.buffered(), 0);
        assert!(matches!(dec.next(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn corrupt_byte_is_a_checksum_error() {
        let mut wire = Frame::Hello { tenant: 9, chip: 9 }.encode();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        assert!(matches!(dec.next(), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn readings_count_is_capped_independently_of_frame_size() {
        // A body that *claims* MAX_READINGS+1 values but is otherwise tiny:
        // the count cap must fire (Truncated would also be safe, but the
        // cap check comes first so the error names the real violation).
        let mut body = vec![2u8]; // KIND_READINGS
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&((MAX_READINGS as u32) + 1).to_le_bytes());
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        assert!(matches!(dec.next(), Err(FrameError::TooManyReadings(_))));
    }

    #[test]
    fn untraced_readings_stay_wire_compatible_with_v1() {
        // An untraced frame must be byte-identical to the historical v1
        // encoding: hand-build the v1 body and compare.
        let frame = Frame::Readings { chip: 6, seq: 12, trace: None, values: vec![0.5, 0.25] };
        let mut body = vec![KIND_READINGS];
        body.extend_from_slice(&6u64.to_le_bytes());
        body.extend_from_slice(&12u64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&0.5f64.to_le_bytes());
        body.extend_from_slice(&0.25f64.to_le_bytes());
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        assert_eq!(frame.encode(), wire);
        // …and a v1 body decodes to `trace: None` (old peers still work).
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        assert_eq!(dec.next().unwrap(), Some(frame));
    }

    #[test]
    fn traced_readings_use_the_v2_kind() {
        let wire = Frame::Readings { chip: 1, seq: 2, trace: Some(3), values: vec![] }.encode();
        assert_eq!(wire[HEADER_LEN], KIND_READINGS_V2);
        // A truncated v2 body (trace ID cut off) is a framing error, not a
        // misparse as v1.
        let mut body = vec![KIND_READINGS_V2];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&[0u8; 4]); // half a trace ID
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire);
        assert!(matches!(dec.next(), Err(FrameError::Truncated)));
    }
}
