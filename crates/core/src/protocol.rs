//! The device ↔ edge-server wire protocol (§III-A, §IV).
//!
//! After the device executes `L_1..L_p` it ships the intermediate tensors
//! *together with the partition point* so the server can fetch (or build)
//! the matching suffix graph from its own partition cache. The runtime
//! profiler's probe packets and the periodic load-factor query ride the
//! same connection.
//!
//! The encoding is a compact little-endian tag-length-value format over
//! [`bytes`]; payloads are byte blobs (this reproduction moves simulated
//! tensors, so payload *sizes* are what matter, but the framing is real and
//! round-trips byte-exactly).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use lp_graph::Precision;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Protocol version carried in every frame. Version 2 added the
/// upload-tensor precision byte to [`Message::OffloadRequest`] (the frame
/// layout changed, so version-1 peers fail safe with
/// [`ProtocolError::BadVersion`] instead of misparsing).
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on one message's payload blob. Anything larger is refused at
/// encode time with [`ProtocolError::Oversized`] — well before the
/// historical `len as u32` cast could silently truncate the declared
/// length on the wire — and the socket transport refuses declared frame
/// lengths beyond it instead of allocating attacker-controlled buffers.
pub const MAX_PAYLOAD_BYTES: usize = 64 * 1024 * 1024;

/// Process-wide count of payload bytes memcpy'd by the framing layer
/// (contiguous [`Message::encode`] and [`Frame::flatten`]). The zero-copy
/// [`Frame`] path never touches it; the serving benchmark reads the delta
/// across a run to report "bytes copied" per mode.
static FRAMING_BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

/// Total payload bytes the framing layer has copied so far in this process.
#[must_use]
pub fn framing_bytes_copied() -> u64 {
    FRAMING_BYTES_COPIED.load(Ordering::Relaxed)
}

fn count_copied(n: usize) {
    FRAMING_BYTES_COPIED.fetch_add(n as u64, Ordering::Relaxed);
}

/// A wire frame as a header/payload chain.
///
/// The on-the-wire bytes are `header ++ payload`; keeping the two segments
/// separate lets a multi-MB tensor payload ride through the transport as an
/// `Arc` reference-count bump instead of a memcpy. [`Frame::flatten`]
/// recovers the contiguous encoding (and is the compatibility bridge for
/// [`FrameChannel`](crate::FrameChannel) implementations that only speak
/// contiguous [`Bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Version byte, tag byte and the fixed-width fields, including the
    /// payload length prefix.
    pub header: Bytes,
    /// The payload blob (empty for integer-only messages).
    pub payload: Bytes,
}

impl Frame {
    /// Wraps an already-contiguous encoded frame (empty payload segment).
    #[must_use]
    pub fn from_contiguous(bytes: Bytes) -> Self {
        Frame {
            header: bytes,
            payload: Bytes::new(),
        }
    }

    /// Total wire length of the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.header.len() + self.payload.len()
    }

    /// Whether the frame carries no bytes at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.header.is_empty() && self.payload.is_empty()
    }

    /// Recovers the contiguous wire encoding. Free when the payload segment
    /// is empty; otherwise both segments are memcpy'd into one buffer (and
    /// counted in [`framing_bytes_copied`]).
    #[must_use]
    pub fn flatten(self) -> Bytes {
        if self.payload.is_empty() {
            return self.header;
        }
        count_copied(self.header.len() + self.payload.len());
        let mut b = BytesMut::with_capacity(self.len());
        b.put_slice(&self.header);
        b.put_slice(&self.payload);
        b.freeze()
    }
}

const TAG_OFFLOAD_REQUEST: u8 = 1;
const TAG_OFFLOAD_RESPONSE: u8 = 2;
const TAG_LOAD_QUERY: u8 = 3;
const TAG_LOAD_REPLY: u8 = 4;
const TAG_PROBE: u8 = 5;
const TAG_PROBE_ACK: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_REJECTED: u8 = 8;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Device -> server: partition point plus the crossing tensors.
    OffloadRequest {
        /// Client-chosen request id, echoed in the response.
        request_id: u64,
        /// The partition point `p`, so the server can partition/cache.
        partition_point: u32,
        /// Upload-tensor precision at the negotiated width (one byte on
        /// the wire, [`Precision::wire`]). The server counts narrow
        /// uploads; it does not read or dequantize the payload.
        precision: Precision,
        /// The packed intermediate tensors (MakeTuple output).
        payload: Bytes,
    },
    /// Server -> device: the inference result.
    OffloadResponse {
        /// Echoed request id.
        request_id: u64,
        /// Observed server-side execution time in microseconds (fed to the
        /// device's records; the server's own tracker also sees it).
        server_time_us: u64,
        /// The result tensor.
        payload: Bytes,
    },
    /// Device -> server: "what is your current load factor?" (periodic).
    LoadQuery,
    /// Server -> device: the most recent `k`.
    LoadReply {
        /// Load influence factor, `k >= 1`, transported as micro-units to
        /// keep the frame integer-only.
        k_micro: u64,
    },
    /// Device -> server: bandwidth probe of the given size.
    Probe {
        /// Probe payload (size matters, contents do not).
        payload: Bytes,
    },
    /// Server -> device: probe acknowledgement.
    ProbeAck,
    /// Device -> server: end of session.
    Shutdown,
    /// Server -> device: admission control shed this request — the
    /// pending-work budget is exhausted, run the suffix locally.
    Rejected {
        /// Echoed request id.
        request_id: u64,
        /// Predicted time until the server's backlog drains, in
        /// microseconds; a hint for when offloading is worth retrying.
        retry_after_us: u64,
        /// The server's current load factor, piggybacked so the client's
        /// profile is load-aware immediately (micro-units, like
        /// [`Message::LoadReply`]).
        k_micro: u64,
    },
}

impl Message {
    /// The exact wire length of the fixed-width part of this message:
    /// version, tag and integer fields, including any payload length
    /// prefix — everything except the payload blob itself.
    #[must_use]
    fn header_len(&self) -> usize {
        2 + match self {
            Message::OffloadRequest { .. } => 8 + 4 + 1 + 4,
            Message::OffloadResponse { .. } => 8 + 8 + 4,
            Message::LoadQuery | Message::ProbeAck | Message::Shutdown => 0,
            Message::LoadReply { .. } => 8,
            Message::Probe { .. } => 4,
            Message::Rejected { .. } => 8 + 8 + 8,
        }
    }

    /// The payload blob this message carries, if any.
    fn payload(&self) -> Option<&Bytes> {
        match self {
            Message::OffloadRequest { payload, .. }
            | Message::OffloadResponse { payload, .. }
            | Message::Probe { payload } => Some(payload),
            _ => None,
        }
    }

    /// The payload's wire length as the `u32` length prefix, refusing
    /// anything past [`MAX_PAYLOAD_BYTES`] — which also makes the `u32`
    /// conversion checked instead of a silently-truncating `as` cast.
    fn payload_len_prefix(payload: &Bytes) -> Result<u32, ProtocolError> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(ProtocolError::Oversized(payload.len()));
        }
        u32::try_from(payload.len()).map_err(|_| ProtocolError::Oversized(payload.len()))
    }

    /// Encodes the fixed-width part of the message (everything except the
    /// payload blob) into `b`.
    fn encode_header(&self, b: &mut BytesMut) -> Result<(), ProtocolError> {
        b.put_u8(PROTOCOL_VERSION);
        match self {
            Message::OffloadRequest {
                request_id,
                partition_point,
                precision,
                payload,
            } => {
                let len = Self::payload_len_prefix(payload)?;
                b.put_u8(TAG_OFFLOAD_REQUEST);
                b.put_u64_le(*request_id);
                b.put_u32_le(*partition_point);
                b.put_u8(precision.wire());
                b.put_u32_le(len);
            }
            Message::OffloadResponse {
                request_id,
                server_time_us,
                payload,
            } => {
                let len = Self::payload_len_prefix(payload)?;
                b.put_u8(TAG_OFFLOAD_RESPONSE);
                b.put_u64_le(*request_id);
                b.put_u64_le(*server_time_us);
                b.put_u32_le(len);
            }
            Message::LoadQuery => b.put_u8(TAG_LOAD_QUERY),
            Message::LoadReply { k_micro } => {
                b.put_u8(TAG_LOAD_REPLY);
                b.put_u64_le(*k_micro);
            }
            Message::Probe { payload } => {
                let len = Self::payload_len_prefix(payload)?;
                b.put_u8(TAG_PROBE);
                b.put_u32_le(len);
            }
            Message::ProbeAck => b.put_u8(TAG_PROBE_ACK),
            Message::Shutdown => b.put_u8(TAG_SHUTDOWN),
            Message::Rejected {
                request_id,
                retry_after_us,
                k_micro,
            } => {
                b.put_u8(TAG_REJECTED);
                b.put_u64_le(*request_id);
                b.put_u64_le(*retry_after_us);
                b.put_u64_le(*k_micro);
            }
        }
        Ok(())
    }

    /// Encodes the message into one contiguous self-delimiting frame.
    ///
    /// The payload blob is memcpy'd into the buffer (counted in
    /// [`framing_bytes_copied`]); the hot serving path uses
    /// [`Message::to_frame`] instead, which shares it by reference.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Oversized`] when the payload blob exceeds
    /// [`MAX_PAYLOAD_BYTES`] and its length cannot be declared honestly.
    pub fn encode(&self) -> Result<Bytes, ProtocolError> {
        let payload_len = self.payload().map_or(0, Bytes::len);
        let mut b = BytesMut::with_capacity(self.header_len() + payload_len);
        self.encode_header(&mut b)?;
        if let Some(payload) = self.payload() {
            count_copied(payload.len());
            b.put_slice(payload);
        }
        Ok(b.freeze())
    }

    /// Encodes the message as a header/payload [`Frame`]: the fixed-width
    /// fields are serialized into a fresh (small) header buffer and the
    /// payload blob is shared by `Arc` reference — zero copies of tensor
    /// bytes. `frame.flatten()` equals [`Message::encode`] byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Oversized`] when the payload blob exceeds
    /// [`MAX_PAYLOAD_BYTES`] and its length cannot be declared honestly.
    pub fn to_frame(&self) -> Result<Frame, ProtocolError> {
        let mut b = BytesMut::with_capacity(self.header_len());
        self.encode_header(&mut b)?;
        Ok(Frame {
            header: b.freeze(),
            payload: self.payload().cloned().unwrap_or_default(),
        })
    }

    /// Decodes a header/payload [`Frame`], keeping the payload segment
    /// zero-copy when the header's declared length matches it exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] exactly as [`Message::decode`] would for
    /// the flattened frame.
    pub fn decode_frame(frame: Frame) -> Result<Message, ProtocolError> {
        if frame.payload.is_empty() {
            return Message::decode(frame.header);
        }
        if let Some(&version) = frame.header.first().filter(|&&v| v != PROTOCOL_VERSION) {
            // A foreign version (a corrupted frame) is rejected from the
            // header alone, as the contiguous decoder would reject it.
            return Err(ProtocolError::BadVersion(version));
        }
        let mut buf = frame.header.clone();
        if buf.remaining() >= 2 && buf[0] == PROTOCOL_VERSION {
            buf.advance(1);
            let tag = buf.get_u8();
            match tag {
                TAG_OFFLOAD_REQUEST if buf.remaining() == 17 => {
                    let request_id = buf.get_u64_le();
                    let partition_point = buf.get_u32_le();
                    let precision = Precision::from_wire(buf.get_u8());
                    if let Some(precision) = precision {
                        if buf.get_u32_le() as usize == frame.payload.len() {
                            return Ok(Message::OffloadRequest {
                                request_id,
                                partition_point,
                                precision,
                                payload: frame.payload,
                            });
                        }
                    }
                }
                TAG_OFFLOAD_RESPONSE if buf.remaining() == 20 => {
                    let request_id = buf.get_u64_le();
                    let server_time_us = buf.get_u64_le();
                    if buf.get_u32_le() as usize == frame.payload.len() {
                        return Ok(Message::OffloadResponse {
                            request_id,
                            server_time_us,
                            payload: frame.payload,
                        });
                    }
                }
                TAG_PROBE
                    if buf.remaining() == 4 && buf.get_u32_le() as usize == frame.payload.len() =>
                {
                    return Ok(Message::Probe {
                        payload: frame.payload,
                    });
                }
                _ => {}
            }
        }
        // Malformed or split at an unexpected boundary: fall back to the
        // contiguous decoder so every error class matches it exactly.
        Message::decode(frame.flatten())
    }

    /// Decodes one frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncated frames, unknown versions,
    /// unknown tags, or bytes left over after a well-formed message
    /// ([`ProtocolError::TrailingBytes`] — on a real byte stream leftover
    /// bytes mean the framing layer has desynced, so they must never be
    /// silently discarded).
    pub fn decode(mut buf: Bytes) -> Result<Message, ProtocolError> {
        if buf.remaining() < 2 {
            return Err(ProtocolError::Truncated);
        }
        let version = buf.get_u8();
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize| -> Result<(), ProtocolError> {
            if buf.remaining() < n {
                Err(ProtocolError::Truncated)
            } else {
                Ok(())
            }
        };
        let msg = match tag {
            TAG_OFFLOAD_REQUEST => {
                need(&buf, 17)?;
                let request_id = buf.get_u64_le();
                let partition_point = buf.get_u32_le();
                let precision_byte = buf.get_u8();
                let precision = Precision::from_wire(precision_byte)
                    .ok_or(ProtocolError::BadPrecision(precision_byte))?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len)?;
                let payload = buf.copy_to_bytes(len);
                Ok(Message::OffloadRequest {
                    request_id,
                    partition_point,
                    precision,
                    payload,
                })
            }
            TAG_OFFLOAD_RESPONSE => {
                need(&buf, 20)?;
                let request_id = buf.get_u64_le();
                let server_time_us = buf.get_u64_le();
                let len = buf.get_u32_le() as usize;
                need(&buf, len)?;
                let payload = buf.copy_to_bytes(len);
                Ok(Message::OffloadResponse {
                    request_id,
                    server_time_us,
                    payload,
                })
            }
            TAG_LOAD_QUERY => Ok(Message::LoadQuery),
            TAG_LOAD_REPLY => {
                need(&buf, 8)?;
                Ok(Message::LoadReply {
                    k_micro: buf.get_u64_le(),
                })
            }
            TAG_PROBE => {
                need(&buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len)?;
                Ok(Message::Probe {
                    payload: buf.copy_to_bytes(len),
                })
            }
            TAG_PROBE_ACK => Ok(Message::ProbeAck),
            TAG_SHUTDOWN => Ok(Message::Shutdown),
            TAG_REJECTED => {
                need(&buf, 24)?;
                Ok(Message::Rejected {
                    request_id: buf.get_u64_le(),
                    retry_after_us: buf.get_u64_le(),
                    k_micro: buf.get_u64_le(),
                })
            }
            other => Err(ProtocolError::UnknownTag(other)),
        }?;
        if buf.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes(buf.remaining()));
        }
        Ok(msg)
    }

    /// The wire tag of this message kind (used to report out-of-order
    /// frames precisely).
    #[must_use]
    pub fn tag(&self) -> u8 {
        match self {
            Message::OffloadRequest { .. } => TAG_OFFLOAD_REQUEST,
            Message::OffloadResponse { .. } => TAG_OFFLOAD_RESPONSE,
            Message::LoadQuery => TAG_LOAD_QUERY,
            Message::LoadReply { .. } => TAG_LOAD_REPLY,
            Message::Probe { .. } => TAG_PROBE,
            Message::ProbeAck => TAG_PROBE_ACK,
            Message::Shutdown => TAG_SHUTDOWN,
            Message::Rejected { .. } => TAG_REJECTED,
        }
    }

    /// Converts a load factor to its wire representation.
    #[must_use]
    pub fn k_to_micro(k: f64) -> u64 {
        (k.max(1.0) * 1e6).round() as u64
    }

    /// Converts the wire representation back to a load factor.
    #[must_use]
    pub fn micro_to_k(k_micro: u64) -> f64 {
        (k_micro as f64 / 1e6).max(1.0)
    }
}

/// Errors raised on the wire: frame decoding plus session-level I/O
/// failures (the fault surface the client degrades on instead of
/// panicking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame ended before the declared content.
    Truncated,
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown message tag.
    UnknownTag(u8),
    /// Unknown upload-tensor precision byte on an offload request. Unlike
    /// an unknown *tag* (a message kind this decoder can skip), an unknown
    /// precision means the payload cannot be interpreted at all, and a
    /// resend of the same frame fails identically — so it is not transient.
    BadPrecision(u8),
    /// Bytes were left over after a well-formed message — the framing has
    /// desynced (carries the leftover byte count).
    TrailingBytes(usize),
    /// A payload exceeded [`MAX_PAYLOAD_BYTES`] (carries the offending
    /// length): refused at encode time, and by the socket transport when a
    /// peer declares such a frame length.
    Oversized(usize),
    /// The peer is gone (channel disconnected / server thread exited).
    Disconnected,
    /// No frame arrived within the operation's deadline.
    Timeout,
    /// A well-formed message of the wrong kind arrived mid-exchange
    /// (carries the offending tag).
    Unexpected(u8),
    /// The server thread panicked; reported at teardown instead of
    /// propagating the panic into the client process.
    ServerPanicked,
}

impl ProtocolError {
    /// Whether retrying the whole exchange may succeed. Everything except
    /// a dead peer, an oversized payload or an unknown precision is worth
    /// retrying: timeouts and unexpected frames are transient, and a
    /// corrupt frame (truncated / bad version / unknown tag / trailing
    /// bytes) may decode fine on a resend. Oversized payloads and unknown
    /// precisions are deterministic — resending the same message fails the
    /// same way — so they are not transient.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            ProtocolError::Disconnected
                | ProtocolError::ServerPanicked
                | ProtocolError::Oversized(_)
                | ProtocolError::BadPrecision(_)
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::BadPrecision(p) => {
                write!(f, "unknown upload-tensor precision {p}")
            }
            ProtocolError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after a well-formed message")
            }
            ProtocolError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the frame size cap")
            }
            ProtocolError::Disconnected => write!(f, "peer disconnected"),
            ProtocolError::Timeout => write!(f, "deadline expired waiting for a frame"),
            ProtocolError::Unexpected(t) => write!(f, "unexpected message tag {t} mid-exchange"),
            ProtocolError::ServerPanicked => write!(f, "server thread panicked"),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let encoded = m.encode().expect("encodes");
        let decoded = Message::decode(encoded).expect("round trip");
        assert_eq!(decoded, m);
    }

    fn every_variant() -> Vec<Message> {
        vec![
            Message::OffloadRequest {
                request_id: 42,
                partition_point: 8,
                precision: Precision::Int8,
                payload: Bytes::from(vec![7u8; 48]),
            },
            Message::OffloadResponse {
                request_id: 42,
                server_time_us: 1_234,
                payload: Bytes::from(vec![1u8; 32]),
            },
            Message::LoadQuery,
            Message::LoadReply { k_micro: 2_500_000 },
            Message::Probe {
                payload: Bytes::from(vec![0u8; 16]),
            },
            Message::ProbeAck,
            Message::Shutdown,
            Message::Rejected {
                request_id: 42,
                retry_after_us: 180_000,
                k_micro: 31_500_000,
            },
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for precision in Precision::ALL {
            round_trip(Message::OffloadRequest {
                request_id: 42,
                partition_point: 8,
                precision,
                payload: Bytes::from(vec![7u8; 129_792]),
            });
        }
        round_trip(Message::OffloadResponse {
            request_id: 42,
            server_time_us: 1_234,
            payload: Bytes::from(vec![1u8; 4_000]),
        });
        round_trip(Message::LoadQuery);
        round_trip(Message::LoadReply { k_micro: 2_500_000 });
        round_trip(Message::Probe {
            payload: Bytes::from(vec![0u8; 8_192]),
        });
        round_trip(Message::ProbeAck);
        round_trip(Message::Shutdown);
        round_trip(Message::Rejected {
            request_id: 42,
            retry_after_us: 180_000,
            k_micro: 31_500_000,
        });
    }

    #[test]
    fn empty_payloads_are_fine() {
        round_trip(Message::Probe {
            payload: Bytes::new(),
        });
        round_trip(Message::OffloadRequest {
            request_id: 0,
            partition_point: 0,
            precision: Precision::Fp32,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn truncated_frames_error() {
        let full = Message::OffloadRequest {
            request_id: 1,
            partition_point: 2,
            precision: Precision::Int4,
            payload: Bytes::from(vec![0u8; 64]),
        }
        .encode()
        .expect("encodes");
        for cut in [0, 1, 2, 10, full.len() - 1] {
            let err = Message::decode(full.slice(0..cut)).unwrap_err();
            assert_eq!(err, ProtocolError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_version_and_tag_error() {
        let mut bad_version = BytesMut::new();
        bad_version.put_u8(99);
        bad_version.put_u8(TAG_LOAD_QUERY);
        assert_eq!(
            Message::decode(bad_version.freeze()).unwrap_err(),
            ProtocolError::BadVersion(99)
        );
        let mut bad_tag = BytesMut::new();
        bad_tag.put_u8(PROTOCOL_VERSION);
        bad_tag.put_u8(200);
        assert_eq!(
            Message::decode(bad_tag.freeze()).unwrap_err(),
            ProtocolError::UnknownTag(200)
        );
    }

    #[test]
    fn k_wire_conversion() {
        assert_eq!(Message::k_to_micro(1.0), 1_000_000);
        assert_eq!(Message::micro_to_k(Message::k_to_micro(3.25)), 3.25);
        // Sub-1 values clamp to the constraint k >= 1 on both paths.
        assert_eq!(Message::k_to_micro(0.5), 1_000_000);
        assert_eq!(Message::micro_to_k(5), 1.0);
    }

    #[test]
    fn error_display() {
        assert!(!ProtocolError::Truncated.to_string().is_empty());
        assert!(ProtocolError::BadVersion(3).to_string().contains('3'));
        assert!(ProtocolError::UnknownTag(9).to_string().contains('9'));
        assert!(ProtocolError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(ProtocolError::Timeout.to_string().contains("deadline"));
        assert!(ProtocolError::Unexpected(4).to_string().contains('4'));
    }

    #[test]
    fn tags_survive_the_round_trip() {
        let msgs = [
            Message::OffloadRequest {
                request_id: 1,
                partition_point: 2,
                precision: Precision::Fp16,
                payload: Bytes::new(),
            },
            Message::OffloadResponse {
                request_id: 1,
                server_time_us: 3,
                payload: Bytes::new(),
            },
            Message::LoadQuery,
            Message::LoadReply { k_micro: 1_000_000 },
            Message::Probe {
                payload: Bytes::new(),
            },
            Message::ProbeAck,
            Message::Shutdown,
            Message::Rejected {
                request_id: 1,
                retry_after_us: 2,
                k_micro: 3_000_000,
            },
        ];
        for m in msgs {
            let tag = m.tag();
            let decoded = Message::decode(m.encode().expect("encodes")).expect("round trip");
            assert_eq!(decoded.tag(), tag);
            // The tag is the second byte of every frame.
            assert_eq!(m.encode().expect("encodes")[1], tag);
        }
    }

    #[test]
    fn transience_classification() {
        assert!(ProtocolError::Timeout.is_transient());
        assert!(ProtocolError::Truncated.is_transient());
        assert!(ProtocolError::BadVersion(9).is_transient());
        assert!(ProtocolError::UnknownTag(9).is_transient());
        assert!(ProtocolError::Unexpected(2).is_transient());
        assert!(!ProtocolError::Disconnected.is_transient());
        assert!(!ProtocolError::ServerPanicked.is_transient());
        assert!(!ProtocolError::BadPrecision(4).is_transient());
    }

    #[test]
    fn rejected_truncations_error() {
        let full = Message::Rejected {
            request_id: 7,
            retry_after_us: 9,
            k_micro: 2_000_000,
        }
        .encode()
        .expect("encodes");
        assert_eq!(full.len(), 2 + 24);
        for cut in [2, 9, 17, full.len() - 1] {
            let err = Message::decode(full.slice(0..cut)).unwrap_err();
            assert_eq!(err, ProtocolError::Truncated, "cut at {cut}");
        }
    }

    /// The header/payload frame must flatten to exactly the bytes the
    /// contiguous encoder produces, for every message kind.
    #[test]
    fn frames_flatten_to_the_contiguous_encoding() {
        let msgs = [
            Message::OffloadRequest {
                request_id: 42,
                partition_point: 8,
                precision: Precision::Int4,
                payload: Bytes::from(vec![7u8; 129_792]),
            },
            Message::OffloadResponse {
                request_id: 42,
                server_time_us: 1_234,
                payload: Bytes::from(vec![1u8; 4_000]),
            },
            Message::LoadQuery,
            Message::LoadReply { k_micro: 2_500_000 },
            Message::Probe {
                payload: Bytes::from(vec![0u8; 8_192]),
            },
            Message::ProbeAck,
            Message::Shutdown,
            Message::Rejected {
                request_id: 42,
                retry_after_us: 180_000,
                k_micro: 31_500_000,
            },
        ];
        for m in msgs {
            let frame = m.to_frame().expect("encodes");
            let contiguous = m.encode().expect("encodes");
            assert_eq!(frame.len(), contiguous.len());
            assert_eq!(frame.clone().flatten(), contiguous, "{m:?}");
            assert_eq!(Message::decode_frame(frame).expect("round trip"), m);
        }
    }

    /// `to_frame` and `decode_frame` move the payload by reference: the
    /// decoded payload aliases the very allocation the sender handed in.
    #[test]
    fn frame_payloads_are_zero_copy() {
        let payload = Bytes::from(vec![9u8; 65_536]);
        let m = Message::OffloadRequest {
            request_id: 7,
            partition_point: 3,
            precision: Precision::Int8,
            payload: payload.clone(),
        };
        let frame = m.to_frame().expect("encodes");
        assert!(
            std::ptr::eq(frame.payload.as_ref(), payload.as_ref()),
            "to_frame must share the payload allocation"
        );
        let decoded = Message::decode_frame(frame).expect("round trip");
        let Message::OffloadRequest { payload: out, .. } = decoded else {
            panic!("wrong variant");
        };
        assert!(
            std::ptr::eq(out.as_ref(), payload.as_ref()),
            "decode_frame must keep sharing the payload allocation"
        );
    }

    /// The contiguous encoder memcpys payload bytes and says so. (Other
    /// tests share the process-wide counter, so assert a lower bound.)
    #[test]
    fn contiguous_encode_counts_copied_payload_bytes() {
        let before = framing_bytes_copied();
        let _ = Message::Probe {
            payload: Bytes::from(vec![0u8; 10_000]),
        }
        .encode()
        .expect("encodes");
        assert!(framing_bytes_copied() - before >= 10_000);
    }

    /// A frame whose header declares a different payload length than the
    /// payload segment carries falls back to the contiguous decoder, which
    /// reports the same truncation error it always has.
    #[test]
    fn mismatched_frame_lengths_fall_back_to_the_contiguous_decoder() {
        let mut frame = Message::OffloadRequest {
            request_id: 1,
            partition_point: 2,
            precision: Precision::Fp32,
            payload: Bytes::from(vec![0u8; 64]),
        }
        .to_frame()
        .expect("encodes");
        frame.payload = frame.payload.slice(0..32); // lose half the payload
        assert_eq!(
            Message::decode_frame(frame).unwrap_err(),
            ProtocolError::Truncated
        );
    }

    /// Wrapping a contiguous frame loses nothing: decode_frame on a
    /// flattened-then-wrapped frame equals decode.
    #[test]
    fn contiguous_frames_wrap_and_decode() {
        let m = Message::OffloadResponse {
            request_id: 3,
            server_time_us: 17,
            payload: Bytes::from(vec![5u8; 256]),
        };
        let wrapped = Frame::from_contiguous(m.encode().expect("encodes"));
        assert!(!wrapped.is_empty());
        assert_eq!(Message::decode_frame(wrapped).expect("round trip"), m);
    }

    /// Wire compatibility: a decoder that predates [`Message::Rejected`]
    /// classifies tag 8 as an unknown tag — which the exchange loops remap
    /// to [`ProtocolError::Unexpected`] — so a new server talking to an old
    /// client fails safe (local fallback), never panics. We model the old
    /// decoder by checking that any tag above the legacy range decodes to
    /// the same error class the legacy decoder produced.
    #[test]
    fn future_tags_fail_safe_on_old_decoders() {
        // An old decoder seeing today's Rejected frame: tag 8 was unknown.
        let mut future = BytesMut::new();
        future.put_u8(PROTOCOL_VERSION);
        future.put_u8(TAG_REJECTED + 1); // a tag *this* decoder doesn't know
        future.put_u64_le(1);
        let err = Message::decode(future.freeze()).unwrap_err();
        assert_eq!(err, ProtocolError::UnknownTag(TAG_REJECTED + 1));
        // Unknown tags stay transient: the peer may resend something valid.
        assert!(err.is_transient());
    }

    /// Regression: `decode` used to silently accept (and drop) bytes left
    /// over after a well-formed message — which on a TCP stream masks
    /// framing desync. Every tag must now reject them.
    #[test]
    fn trailing_bytes_are_rejected_for_every_tag() {
        for m in every_variant() {
            for extra in [1usize, 3, 17] {
                let mut v = m.encode().expect("encodes").to_vec();
                v.resize(v.len() + extra, 0xAB);
                let err = Message::decode(Bytes::from(v)).unwrap_err();
                assert_eq!(
                    err,
                    ProtocolError::TrailingBytes(extra),
                    "tag {} with {extra} trailing byte(s)",
                    m.tag()
                );
                // Desync is worth a resync attempt, like corruption.
                assert!(err.is_transient());
            }
        }
    }

    /// Trailing bytes after the *declared payload* of a frame are caught
    /// through the split decoder too (via its contiguous fallback).
    #[test]
    fn trailing_bytes_are_rejected_through_decode_frame() {
        let m = Message::Probe {
            payload: Bytes::from(vec![4u8; 8]),
        };
        let mut frame = m.to_frame().expect("encodes");
        let mut grown = frame.payload.to_vec();
        grown.push(0xCD);
        frame.payload = Bytes::from(grown);
        assert_eq!(
            Message::decode_frame(frame).unwrap_err(),
            ProtocolError::TrailingBytes(1)
        );
    }

    /// Regression: `encode_header` used to cast `payload.len() as u32`
    /// unchecked, so giant payloads silently truncated their declared
    /// length on the wire. Both encoders must refuse them now.
    #[test]
    fn oversized_payloads_are_refused_at_encode_time() {
        let payload = crate::pool::zero_payload(MAX_PAYLOAD_BYTES + 1);
        for m in [
            Message::Probe {
                payload: payload.clone(),
            },
            Message::OffloadRequest {
                request_id: 1,
                partition_point: 2,
                precision: Precision::Fp32,
                payload: payload.clone(),
            },
            Message::OffloadResponse {
                request_id: 1,
                server_time_us: 3,
                payload: payload.clone(),
            },
        ] {
            let err = m.encode().unwrap_err();
            assert_eq!(err, ProtocolError::Oversized(MAX_PAYLOAD_BYTES + 1));
            assert_eq!(
                m.to_frame().unwrap_err(),
                ProtocolError::Oversized(MAX_PAYLOAD_BYTES + 1)
            );
            // Deterministic failure: retrying the same send cannot help.
            assert!(!err.is_transient());
        }
        // A payload exactly at the cap still encodes.
        let at_cap = Message::Probe {
            payload: crate::pool::zero_payload(MAX_PAYLOAD_BYTES),
        };
        assert!(at_cap.to_frame().is_ok());
    }

    #[test]
    fn new_error_variants_display() {
        assert!(ProtocolError::TrailingBytes(3).to_string().contains('3'));
        assert!(ProtocolError::Oversized(70_000_000)
            .to_string()
            .contains("70000000"));
        assert!(ProtocolError::BadPrecision(9)
            .to_string()
            .contains("precision 9"));
    }

    /// Forward compatibility, precision edition (the TAG-8 story one field
    /// deeper): a frame declaring a precision this decoder doesn't know
    /// must decode to [`ProtocolError::BadPrecision`] — never panic, never
    /// misparse the payload at a guessed width — and the error must be
    /// non-transient, because resending the identical frame fails the same
    /// way.
    #[test]
    fn unknown_precisions_fail_safe_and_deterministic() {
        let good = Message::OffloadRequest {
            request_id: 11,
            partition_point: 4,
            precision: Precision::Int8,
            payload: Bytes::from(vec![3u8; 24]),
        };
        let encoded = good.encode().expect("encodes");
        // The precision byte sits after version(1) + tag(1) + id(8) + p(4).
        const PRECISION_OFFSET: usize = 14;
        for bad in [4u8, 5, 17, 255] {
            let mut v = encoded.to_vec();
            v[PRECISION_OFFSET] = bad;
            let err = Message::decode(Bytes::from(v)).unwrap_err();
            assert_eq!(err, ProtocolError::BadPrecision(bad));
            assert!(!err.is_transient(), "precision {bad} must not be retried");
        }
        // Same through the split-frame decoder (fast path falls back to
        // the contiguous one, so the error class is identical).
        for bad in [4u8, 200] {
            let mut frame = good.to_frame().expect("encodes");
            let mut header = frame.header.to_vec();
            header[PRECISION_OFFSET] = bad;
            frame.header = Bytes::from(header);
            assert_eq!(
                Message::decode_frame(frame).unwrap_err(),
                ProtocolError::BadPrecision(bad)
            );
        }
    }

    /// Every precision survives the zero-copy frame path, and the wire
    /// byte is where the layout says it is.
    #[test]
    fn precisions_survive_the_frame_round_trip() {
        for precision in Precision::ALL {
            let m = Message::OffloadRequest {
                request_id: 5,
                partition_point: 2,
                precision,
                payload: Bytes::from(vec![8u8; 96]),
            };
            let frame = m.to_frame().expect("encodes");
            assert_eq!(frame.header[14], precision.wire());
            let decoded = Message::decode_frame(frame).expect("round trip");
            assert_eq!(decoded, m);
        }
    }
}
