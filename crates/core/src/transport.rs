//! The real-socket transport: the wire [`protocol`](crate::protocol) over
//! TCP and Unix-domain sockets, so server and clients run as separate OS
//! processes (`loadpart serve` / `loadpart smoke`).
//!
//! # Stream framing
//!
//! A [`Frame`]'s channel encoding is not self-delimiting on a byte stream,
//! so every frame is prefixed with its little-endian `u32` wire length:
//!
//! ```text
//! u32-le total_len ++ header bytes ++ payload bytes
//! ```
//!
//! [`SocketChannel::send_split`] hands the prefix, header and payload to
//! one gathered write (`write_vectored`): one syscall per frame, and the
//! multi-MB tensor payload is never flattened into a fresh contiguous
//! buffer. [`SocketChannel::send_batch`] does the same for several frames
//! at once — the profiler refresh's probes and load query leave in one
//! syscall — and `send_split` is its one-frame case. Only a partial write
//! loops. Declared lengths above [`MAX_FRAME_BYTES`] are refused with
//! [`ProtocolError::Oversized`] before any allocation, on both the send
//! and receive side; an oversized frame refuses its whole batch before
//! any byte is written.
//!
//! The receiving `FrameReader` reads into a fixed per-connection
//! read-ahead buffer and cuts whole frames out of it: a frame that fits
//! (up to 16 KiB with its prefix — every control frame, the bandwidth
//! probe, an inference reply) usually costs one `read`, and several
//! frames that arrive together cost one `read` between them. A longer
//! frame's body goes straight into a buffer of its exact length; on the
//! nonblocking server side that buffer is never zero-filled first.
//!
//! # Deadline semantics
//!
//! [`FrameChannel::recv_deadline`] is implemented over `SO_RCVTIMEO`. A
//! frame already in the read-ahead is returned without any syscall; the
//! read timeout is set only before a read that may block, and only when
//! the one in force is longer than the remaining budget (or expired
//! short of its deadline). It is rounded down to whole milliseconds, so
//! the next exchange's fresh budget of the same length reuses it, and
//! clamped to at least 1 ms, the most a receive overshoots its deadline.
//! A timeout mid-frame leaves the incremental `FrameReader` positioned
//! exactly where it stopped — the next `recv_deadline` resumes the same
//! frame, so a deadline never desyncs the stream. Only a genuinely broken
//! stream (EOF, I/O error, oversized declared length) poisons the reader,
//! after which every operation reports [`ProtocolError::Disconnected`].
//!
//! # Server side
//!
//! [`SocketServer`] owns a [`ServerHandle`] plus a small set of
//! *event-driven shards*. Each shard thread owns N accepted connections
//! end to end — their nonblocking sockets, the resumable `FrameReader` per
//! connection (so a partial frame survives `WOULD_BLOCK` exactly as it
//! survives a deadline), and a zero-copy egress outbox flushed with one
//! gathered write across all queued segments — and parks in one `poll(2)`
//! call over all of them plus a wake pipe. The listener lives in shard
//! 0's poll set, so accepting costs no dedicated thread and no busy-poll
//! sleep; the wake pipe only announces a dealt connection or shutdown.
//!
//! A shard serves what it reads to completion, in service rounds. One
//! round sweeps the readable connections: each frame goes through the
//! server core shared with the in-process server thread (one lock: fault
//! script, clock, admission, tracker, counters), and its reply — an
//! admitted suffix's included — lands straight in that connection's
//! outbox. A connection that sent an offload stops being read for the
//! rest of the round: after a long upload body the next `read` would
//! only return `EAGAIN`. A connection with whole frames left in its
//! read-ahead is served again at once, without waiting for `poll`. So
//! each connection's replies leave in request order, and no frame
//! crosses another thread. There are no per-connection threads to leak:
//! shutdown joins every shard.

use crate::pool::zero_payload;
use crate::protocol::{Frame, Message, ProtocolError, MAX_PAYLOAD_BYTES};
use crate::threaded::{FrameChannel, Served, Server, ServerHandle};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on one frame's declared wire length: the protocol's payload
/// cap plus generous room for the largest fixed-width header. A peer
/// declaring more is corrupt or hostile; the reader refuses to allocate.
pub const MAX_FRAME_BYTES: u32 = MAX_PAYLOAD_BYTES as u32 + 256;

/// The byte-stream sockets the framed channel can run over: `Read`/`Write`
/// plus the clone/timeout/shutdown surface `std::net` sockets share.
pub trait NetStream: Read + Write + Send + Sized + 'static {
    /// A second handle to the same socket (independent read/write halves).
    ///
    /// # Errors
    ///
    /// Propagates the OS error when the descriptor cannot be duplicated.
    fn try_clone_stream(&self) -> io::Result<Self>;

    /// Sets (or clears, with `None`) the socket read timeout.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Shuts down both directions, unblocking any reader.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn shutdown_both(&self) -> io::Result<()>;

    /// Switches the socket between blocking and nonblocking mode (the
    /// server shards run every connection nonblocking).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()>;

    /// The raw descriptor, for the shard's readiness set.
    #[cfg(unix)]
    fn raw_fd_stream(&self) -> RawFd;
}

impl NetStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    #[cfg(unix)]
    fn raw_fd_stream(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(unix)]
impl NetStream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    #[cfg(unix)]
    fn raw_fd_stream(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Size of each connection's read-ahead buffer. A frame whose prefix and
/// body fit in it — every control frame, the 8 KiB bandwidth probe, an
/// inference reply — is cut from it, usually after a single `read`; a
/// longer frame's body is read straight into a buffer of its exact length.
const READ_AHEAD: usize = 16 * 1024;

/// Outcome of one [`FrameReader::fill`] read.
enum ReadStep {
    /// Bytes arrived (or a spurious interrupt). `drained`: the read came
    /// back short of the space offered, so the socket most likely holds
    /// nothing more right now.
    Got { drained: bool },
    /// The socket would block / the read timeout expired; state kept.
    Blocked,
    /// The stream is broken; the reader is poisoned.
    Failed(ProtocolError),
}

/// The body of a frame longer than the read-ahead, read straight into a
/// buffer of its exact length.
struct LongBody {
    /// On the nonblocking side exactly the bytes received so far; on the
    /// blocking side the whole zero-padded body once the first read ran.
    body: Vec<u8>,
    /// Body bytes received so far.
    got: usize,
    /// The declared body length.
    len: usize,
}

impl LongBody {
    /// One read into the missing part of the body; `Ok(0)` is EOF.
    ///
    /// The nonblocking shard side lets `read_to_end` fill the spare
    /// capacity, so the body is never zero-filled, and keeps whatever
    /// arrived before `WouldBlock`. The blocking client side needs an
    /// initialized buffer for a single `read`, so that no wait outlasts
    /// the armed read timeout: it moves to a zeroed one first, which the
    /// allocator can serve with fresh zero pages instead of a memset.
    fn read_from<S: Read>(&mut self, stream: &mut S, blocking: bool) -> io::Result<usize> {
        if blocking {
            if self.body.len() < self.len {
                let mut body = vec![0u8; self.len];
                body[..self.got].copy_from_slice(&self.body[..self.got]);
                self.body = body;
            }
            let n = stream.read(&mut self.body[self.got..])?;
            self.got += n;
            return Ok(n);
        }
        let want = (self.len - self.got) as u64;
        let result = stream.take(want).read_to_end(&mut self.body);
        let n = self.body.len() - self.got;
        self.got = self.body.len();
        result?;
        // `read_to_end` stops early only at EOF.
        Ok(if self.got < self.len { 0 } else { n })
    }
}

/// Incremental length-prefixed frame reader over a [`NetStream`].
///
/// Bytes land in a fixed read-ahead buffer from which whole frames are
/// cut, so a read that brings several small frames (or a frame and the
/// start of the next) costs one syscall. Partial state survives every
/// return: a deadline expiring mid-frame resumes cleanly on the next call
/// instead of desyncing the stream — and equally across `WOULD_BLOCK` on
/// the server shards' nonblocking sockets ([`FrameReader::poll_frame`]).
struct FrameReader<S> {
    stream: S,
    /// Read-ahead: `ahead[start..end]` arrived but is not yet cut.
    ahead: Box<[u8]>,
    start: usize,
    end: usize,
    /// A frame too long for the read-ahead, being read past it.
    long: Option<LongBody>,
    /// The last read came back short: [`FrameReader::poll_frame`] waits
    /// for the next readiness event instead of reading again.
    drained: bool,
    /// The socket read timeout in force, while it may be reused: `None`
    /// before the first one is set and after one expired short of its
    /// deadline.
    armed: Option<Duration>,
    /// Set on EOF, I/O error or an oversized declared length: the stream
    /// position is no longer trustworthy, every later call disconnects.
    poisoned: bool,
}

impl<S: NetStream> FrameReader<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            ahead: vec![0u8; READ_AHEAD].into_boxed_slice(),
            start: 0,
            end: 0,
            long: None,
            drained: false,
            armed: None,
            poisoned: false,
        }
    }

    /// Reads one whole frame, returning [`ProtocolError::Timeout`] with
    /// the partial state kept once `deadline` passes. A frame already
    /// buffered costs no syscall; otherwise each read blocks no longer
    /// than the remaining budget (at least 1 ms).
    fn read_frame(&mut self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Disconnected);
        }
        loop {
            if let Some(frame) = self.cut()? {
                return Ok(frame);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ProtocolError::Timeout);
            }
            self.arm(remaining)?;
            match self.fill(true) {
                ReadStep::Got { .. } => {}
                ReadStep::Blocked => {
                    if Instant::now() < deadline {
                        // Expired short of the deadline: arm afresh.
                        self.armed = None;
                    }
                }
                ReadStep::Failed(err) => return Err(err),
            }
        }
    }

    /// Caps the next blocking read at `remaining`. The socket read timeout
    /// is set only when the one in force is longer (or unknown), and is
    /// rounded down to whole milliseconds, so a later exchange with a
    /// fresh budget of the same length reuses it without a syscall.
    fn arm(&mut self, remaining: Duration) -> Result<(), ProtocolError> {
        if self.armed.is_some_and(|t| t <= remaining) {
            return Ok(());
        }
        // A zero Duration means "no timeout" to the OS; clamp up so the
        // deadline stays a deadline.
        let millis = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
        let timeout = Duration::from_millis(millis).max(Duration::from_millis(1));
        self.stream
            .set_read_timeout_stream(Some(timeout))
            .map_err(|_| self.poison())?;
        self.armed = Some(timeout);
        Ok(())
    }

    /// Nonblocking read attempt for the event-driven shards: the stream must
    /// be in nonblocking mode. `Ok(Some(frame))` per completed frame,
    /// `Ok(None)` once the socket has no more bytes right now (partial
    /// state kept for the next readiness event); EOF, I/O errors and
    /// oversized declared lengths poison exactly like
    /// [`FrameReader::read_frame`].
    fn poll_frame(&mut self) -> Result<Option<Bytes>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Disconnected);
        }
        loop {
            if let Some(frame) = self.cut()? {
                return Ok(Some(frame));
            }
            if std::mem::take(&mut self.drained) {
                return Ok(None);
            }
            match self.fill(false) {
                ReadStep::Got { drained } => self.drained = drained,
                ReadStep::Blocked => return Ok(None),
                ReadStep::Failed(err) => return Err(err),
            }
        }
    }

    /// Whether a whole frame already sits in the read-ahead, so
    /// [`FrameReader::poll_frame`] would return it without a syscall.
    fn has_whole_frame(&self) -> bool {
        let buffered = &self.ahead[self.start..self.end];
        buffered
            .first_chunk::<4>()
            .is_some_and(|prefix| buffered.len() - 4 >= u32::from_le_bytes(*prefix) as usize)
    }

    /// The next whole frame, if one has arrived: cut from the read-ahead,
    /// or the finished long frame. A frame too long for the read-ahead
    /// moves what arrived of its body into an exact-capacity buffer here.
    /// A declared length over [`MAX_FRAME_BYTES`] poisons the reader
    /// before anything is allocated.
    fn cut(&mut self) -> Result<Option<Bytes>, ProtocolError> {
        if self.long.as_ref().is_some_and(|long| long.got < long.len) {
            return Ok(None);
        }
        if let Some(long) = self.long.take() {
            return Ok(Some(Bytes::from(long.body)));
        }
        let buffered = &self.ahead[self.start..self.end];
        let Some(prefix) = buffered.first_chunk::<4>() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*prefix);
        if declared > MAX_FRAME_BYTES {
            self.poisoned = true;
            return Err(ProtocolError::Oversized(declared as usize));
        }
        let len = declared as usize;
        let body = &buffered[4..];
        if 4 + len > READ_AHEAD {
            let mut long = Vec::with_capacity(len);
            long.extend_from_slice(body);
            self.long = Some(LongBody {
                got: body.len(),
                body: long,
                len,
            });
            self.start = 0;
            self.end = 0;
            return Ok(None);
        }
        if body.len() < len {
            return Ok(None);
        }
        let frame = Bytes::from(body[..len].to_vec());
        self.start += 4 + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }

    /// One read: straight into the open long frame, otherwise into the
    /// read-ahead (after moving a partial frame to its front, so a frame
    /// that fits always has room).
    fn fill(&mut self, blocking: bool) -> ReadStep {
        let read = match &mut self.long {
            Some(long) => long
                .read_from(&mut self.stream, blocking)
                .map(|n| (n, false)),
            None => {
                if self.start > 0 {
                    self.ahead.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                }
                let offered = READ_AHEAD - self.end;
                let read = self.stream.read(&mut self.ahead[self.end..]);
                read.map(|n| {
                    self.end += n;
                    (n, n < offered)
                })
            }
        };
        match read {
            Ok((0, _)) => ReadStep::Failed(self.poison()),
            Ok((_, drained)) => ReadStep::Got { drained },
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadStep::Blocked,
                io::ErrorKind::Interrupted => ReadStep::Got { drained: false },
                _ => ReadStep::Failed(self.poison()),
            },
        }
    }

    /// Marks the stream broken and returns the error to report.
    fn poison(&mut self) -> ProtocolError {
        self.poisoned = true;
        ProtocolError::Disconnected
    }
}

/// Writes `frames` back to back, each as `u32-le len ++ header ++
/// payload`, with one gathered write over every frame's segments and no
/// flattening. Every declared length is checked before the first byte
/// leaves, so an oversized frame anywhere refuses the whole batch; only a
/// partial write loops, resuming mid-slice.
fn write_frames<S: NetStream>(stream: &mut S, frames: &[Frame]) -> Result<(), ProtocolError> {
    let prefixes = frames
        .iter()
        .map(|frame| {
            let total = frame.len();
            u32::try_from(total)
                .ok()
                .filter(|&len| len <= MAX_FRAME_BYTES)
                .map(u32::to_le_bytes)
                .ok_or(ProtocolError::Oversized(total))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut slices: Vec<IoSlice<'_>> = prefixes
        .iter()
        .zip(frames)
        .flat_map(|(prefix, frame)| [&prefix[..], &frame.header[..], &frame.payload[..]])
        .filter(|segment| !segment.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match stream.write_vectored(pending) {
            Ok(0) => return Err(ProtocolError::Disconnected),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ProtocolError::Disconnected),
        }
    }
    stream.flush().map_err(|_| ProtocolError::Disconnected)
}

/// Writes one length-prefixed frame: the one-frame case of
/// [`write_frames`], so one gathered write per frame.
fn write_frame<S: NetStream>(stream: &mut S, frame: &Frame) -> Result<(), ProtocolError> {
    write_frames(stream, std::slice::from_ref(frame))
}

/// A [`FrameChannel`] over any [`NetStream`]: the client side of the
/// socket transport. Internally two halves of one socket — a locked
/// incremental reader and a locked writer — so the channel is `Sync` like
/// the in-process endpoints.
pub struct SocketChannel<S: NetStream> {
    reader: Mutex<FrameReader<S>>,
    writer: Mutex<S>,
}

/// The TCP incarnation of [`SocketChannel`].
pub type TcpFrameChannel = SocketChannel<TcpStream>;

/// The Unix-domain-socket incarnation of [`SocketChannel`].
#[cfg(unix)]
pub type UdsFrameChannel = SocketChannel<UnixStream>;

impl<S: NetStream> SocketChannel<S> {
    /// Wraps an already-connected stream.
    ///
    /// # Errors
    ///
    /// Propagates the OS error when the socket cannot be duplicated into
    /// read/write halves.
    pub fn from_stream(stream: S) -> io::Result<Self> {
        let writer = stream.try_clone_stream()?;
        Ok(Self {
            reader: Mutex::new(FrameReader::new(stream)),
            writer: Mutex::new(writer),
        })
    }

    /// The locked write half.
    fn writer(&self) -> std::sync::MutexGuard<'_, S> {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl TcpFrameChannel {
    /// Connects to a `loadpart serve` (or [`SocketServer`]) TCP endpoint.
    /// Nagle's algorithm is disabled: the protocol is request/response and
    /// a 40 ms delayed-ACK stall would dwarf every deadline in the suite.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::from_stream(stream)
    }
}

#[cfg(unix)]
impl UdsFrameChannel {
    /// Connects to a Unix-domain-socket endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_path<P: AsRef<std::path::Path>>(path: P) -> io::Result<Self> {
        Self::from_stream(UnixStream::connect(path)?)
    }
}

impl<S: NetStream> FrameChannel for SocketChannel<S> {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.send_split(Frame::from_contiguous(frame))
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.reader
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .read_frame(deadline)
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        write_frame(&mut *self.writer(), &frame)
    }

    /// The whole batch in one gathered write: one syscall for the profiler
    /// refresh's probes and load query together.
    fn send_batch(&self, frames: Vec<Frame>) -> Result<(), ProtocolError> {
        write_frames(&mut *self.writer(), &frames)
    }
}

/// Measures round-trip goodput over any [`FrameChannel`] by wall-clock
/// timing one probe exchange of `probe_bytes`, in Mbps.
///
/// Unlike the simulated-link profiler this measures *real* elapsed time,
/// which can collapse to ~zero on a loopback socket — yielding absurd or
/// even infinite rates. Feed the result to
/// `BandwidthEstimator::record`, which rejects non-finite and
/// non-positive samples at the door.
///
/// # Errors
///
/// Propagates [`ProtocolError`] from the exchange; a reply that is not a
/// probe acknowledgement surfaces as [`ProtocolError::Unexpected`].
pub fn measure_bandwidth<C: FrameChannel + ?Sized>(
    channel: &C,
    probe_bytes: usize,
    timeout: Duration,
) -> Result<f64, ProtocolError> {
    let frame = Message::Probe {
        payload: zero_payload(probe_bytes),
    }
    .to_frame()?;
    let start = Instant::now();
    channel.send_split(frame)?;
    let deadline = start + timeout;
    loop {
        match Message::decode_frame(channel.recv_split_deadline(deadline)?)? {
            Message::ProbeAck => break,
            // Stale survivors of an earlier timed-out exchange: skip.
            Message::OffloadResponse { .. }
            | Message::LoadReply { .. }
            | Message::Rejected { .. } => continue,
            other => return Err(ProtocolError::Unexpected(other.tag())),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    if elapsed <= 0.0 {
        return Ok(f64::INFINITY); // the estimator guard rejects this
    }
    Ok(probe_bytes as f64 * 8.0 / (elapsed * 1e6))
}

/// Anything the accepting shard can listen on.
trait FrameListener: Send + 'static {
    type Stream: NetStream;

    /// One non-blocking accept attempt. The returned stream is left in
    /// nonblocking mode — the shards are event-driven.
    fn accept_stream(&self) -> io::Result<Self::Stream>;

    /// The raw descriptor, so the listener joins shard 0's readiness set.
    #[cfg(unix)]
    fn raw_fd_listener(&self) -> RawFd;
}

impl FrameListener for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    #[cfg(unix)]
    fn raw_fd_listener(&self) -> RawFd {
        self.as_raw_fd()
    }
}

#[cfg(unix)]
impl FrameListener for UnixListener {
    type Stream = UnixStream;

    fn accept_stream(&self) -> io::Result<UnixStream> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    #[cfg(unix)]
    fn raw_fd_listener(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Minimal hand-declared `poll(2)` binding for the shard readiness loop.
/// The crate is otherwise `deny(unsafe_code)`; this module is the single,
/// narrowly scoped exception — std exposes no readiness API and the
/// workspace links no external crates.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};
    use std::os::unix::io::RawFd;

    /// Layout-identical to the C library's `struct pollfd` on Linux
    /// (glibc and musl agree).
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    impl PollFd {
        pub fn readable(fd: RawFd) -> Self {
            Self {
                fd,
                events: POLLIN,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks until some descriptor is ready or `timeout_ms` passes.
    ///
    /// # Errors
    ///
    /// The OS error (including `EINTR`) when the call fails.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `PollFd` — `#[repr(C)]` and layout-identical to `struct
        // pollfd` — `nfds` is its exact length, and the kernel writes
        // only the `revents` fields within the slice.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

/// Upper bound on one readiness wait: the backstop under which a shard
/// re-checks its stop flag and whether service ended, even with no socket
/// events.
#[cfg(target_os = "linux")]
const POLL_BACKSTOP_MS: i32 = 200;

/// Nap between scans on platforms without the `poll(2)` binding: the
/// portable fallback trades a little latency and idle CPU for zero FFI.
#[cfg(not(target_os = "linux"))]
const FALLBACK_NAP: Duration = Duration::from_millis(2);

/// The shard wake signal: a nonblocking socketpair whose read end sits in
/// the shard's readiness set. Writers — the accepting shard announcing a
/// dealt connection, shutdown — push one byte each; a full pipe means a
/// wake is already pending, which is just as good.
#[cfg(unix)]
struct WakePipe {
    rx: UnixStream,
    tx: WakeHandle,
}

#[cfg(unix)]
impl WakePipe {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self {
            rx,
            tx: WakeHandle(Arc::new(tx)),
        })
    }

    fn handle(&self) -> WakeHandle {
        self.tx.clone()
    }

    /// Swallows every pending wake byte (level-triggered reset): one
    /// `read`, and another only while a read comes back full.
    fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }

    #[cfg(target_os = "linux")]
    fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// Clonable writer half of a [`WakePipe`].
#[cfg(unix)]
#[derive(Clone)]
struct WakeHandle(Arc<UnixStream>);

#[cfg(unix)]
impl WakeHandle {
    fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// Portable stand-in where no socketpair exists: the fallback readiness
/// loop naps instead of blocking, so a flag suffices.
#[cfg(not(unix))]
#[derive(Clone)]
struct WakeHandle(Arc<AtomicBool>);

#[cfg(not(unix))]
struct WakePipe(WakeHandle);

#[cfg(not(unix))]
impl WakePipe {
    fn new() -> io::Result<Self> {
        Ok(Self(WakeHandle(Arc::new(AtomicBool::new(false)))))
    }

    fn handle(&self) -> WakeHandle {
        self.0.clone()
    }

    fn drain(&self) {
        self.0 .0.store(false, Ordering::SeqCst);
    }
}

#[cfg(not(unix))]
impl WakeHandle {
    fn wake(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Most outbox segments one gathered egress write carries (well under
/// the kernel's `IOV_MAX`).
const EGRESS_SLICES: usize = 64;

/// One connection owned by a shard: the nonblocking socket behind a
/// resumable [`FrameReader`], and the zero-copy egress outbox.
struct ShardConn<S: NetStream> {
    reader: FrameReader<S>,
    writer: S,
    /// Egress queue: per reply, `u32-le len ++ header` as one small owned
    /// segment and the payload as a refcount bump — a multi-MB tensor is
    /// never flattened. `offset` tracks how much of the front segment a
    /// partial write already pushed out.
    outbox: VecDeque<Bytes>,
    offset: usize,
    #[cfg(unix)]
    fd: RawFd,
    /// The readiness wait saw (or presumes) ingress bytes pending, or a
    /// whole frame waits in the read-ahead.
    readable: bool,
    /// The socket is broken (EOF, I/O error, oversized declaration).
    dead: bool,
}

impl<S: NetStream> ShardConn<S> {
    fn new(stream: S) -> io::Result<Self> {
        let writer = stream.try_clone_stream()?;
        #[cfg(unix)]
        let fd = stream.raw_fd_stream();
        Ok(Self {
            reader: FrameReader::new(stream),
            writer,
            outbox: VecDeque::new(),
            offset: 0,
            #[cfg(unix)]
            fd,
            readable: true,
            dead: false,
        })
    }

    /// Serves the frames this connection has ready through the core,
    /// replying into its outbox, until none is left or one was an admitted
    /// suffix: after its upload body the next `read` would only return
    /// `EAGAIN`, so the connection is not read again this round. Then
    /// flushes what it replied. Returns `true` once service has ended.
    fn serve_ready(&mut self, server: &Server) -> bool {
        while !self.dead {
            match self.reader.poll_frame() {
                Ok(Some(bytes)) => match server.serve(Frame::from_contiguous(bytes)) {
                    Served::Reply(reply) => self.enqueue(&reply),
                    Served::Suffix(reply) => {
                        self.enqueue(&reply);
                        break;
                    }
                    Served::Nothing => {}
                    Served::Ended => return true,
                },
                Ok(None) => break,
                Err(_) => self.dead = true,
            }
        }
        self.flush();
        false
    }

    /// Splits one reply frame into outbox segments. Server replies stay
    /// far under the frame cap; one that somehow overflowed is dropped
    /// rather than desyncing the stream mid-frame.
    fn enqueue(&mut self, frame: &Frame) {
        let total = frame.len();
        let Some(len) = u32::try_from(total).ok().filter(|&l| l <= MAX_FRAME_BYTES) else {
            return;
        };
        let mut head = Vec::with_capacity(4 + frame.header.len());
        head.extend_from_slice(&len.to_le_bytes());
        head.extend_from_slice(&frame.header);
        self.outbox.push_back(Bytes::from(head));
        if !frame.payload.is_empty() {
            self.outbox.push_back(frame.payload.clone());
        }
    }

    /// Writes the outbox with gathered writes — up to [`EGRESS_SLICES`]
    /// queued segments per syscall — until it is empty or the socket is
    /// full. A short write means the socket buffer is full: the rest waits
    /// for `POLLOUT` instead of a write bound to fail.
    fn flush(&mut self) {
        while !self.outbox.is_empty() {
            let mut slices = [IoSlice::new(&[]); EGRESS_SLICES];
            let mut offered = 0;
            for (i, (slot, segment)) in slices.iter_mut().zip(&self.outbox).enumerate() {
                let unsent = if i == 0 {
                    &segment[self.offset..]
                } else {
                    segment
                };
                *slot = IoSlice::new(unsent);
                offered += unsent.len();
            }
            let count = self.outbox.len().min(EGRESS_SLICES);
            match self.writer.write_vectored(&slices[..count]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.consume(n);
                    if n < offered {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Drops the `n` written bytes from the front of the outbox.
    fn consume(&mut self, mut n: usize) {
        while let Some(front) = self.outbox.front() {
            let left = front.len() - self.offset;
            if n < left {
                self.offset += n;
                return;
            }
            n -= left;
            self.outbox.pop_front();
            self.offset = 0;
        }
    }

    /// A readiness event for this connection: read it next round, even if
    /// its last read came back short.
    fn mark_readable(&mut self) {
        self.readable = true;
        self.reader.drained = false;
    }

    /// Whether the shard should reap this connection: broken socket, or
    /// service ended with nothing left to deliver.
    fn finished(&self, ended: bool) -> bool {
        self.dead || (ended && self.outbox.is_empty())
    }

    /// Closes the socket, so the client sees EOF, not a hang.
    fn close(&mut self) {
        let _ = self.writer.shutdown_both();
    }
}

/// Shard 0's extra duty: the listener plus the deal-out table that
/// round-robins accepted connections across every shard.
struct AcceptRole<L: FrameListener> {
    listener: L,
    routes: Vec<(Sender<ShardConn<L::Stream>>, WakeHandle)>,
    next: usize,
}

impl<L: FrameListener> AcceptRole<L> {
    /// Accepts every pending connection (the listener is level-triggered
    /// in the shard's readiness set, so a burst costs one loop pass).
    fn accept_burst(&mut self) {
        loop {
            match self.listener.accept_stream() {
                Ok(stream) => {
                    let (tx, wake) = &self.routes[self.next % self.routes.len()];
                    self.next = self.next.wrapping_add(1);
                    let Ok(conn) = ShardConn::new(stream) else {
                        continue; // the peer is already gone
                    };
                    if tx.send(conn).is_ok() {
                        wake.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // listener broken: nothing more to accept
            }
        }
    }
}

/// One event-driven shard: the readiness loop over its connections, its
/// wake pipe, and (shard 0 only) the listener. It serves every frame it
/// reads through the shared [`Server`].
struct Shard<L: FrameListener> {
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    wake: WakePipe,
    intake: Receiver<ShardConn<L::Stream>>,
    conns: Vec<ShardConn<L::Stream>>,
    acceptor: Option<AcceptRole<L>>,
    /// Service has ended: read nothing more, deliver what is queued, close.
    ended: bool,
    /// The readiness wait saw (or presumes) wake bytes pending.
    wake_ready: bool,
    /// The readiness wait saw (or presumes) connections to accept.
    listen_ready: bool,
    /// The readiness set, rebuilt in place before every wait.
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

impl<L: FrameListener> Shard<L> {
    fn run(mut self) {
        let server = Arc::clone(&self.server);
        let _guard = server.guard();
        loop {
            let stopping = self.stop.load(Ordering::SeqCst);
            if std::mem::take(&mut self.wake_ready) {
                self.wake.drain();
            }
            while let Ok(conn) = self.intake.try_recv() {
                self.conns.push(conn);
            }
            if !stopping && std::mem::take(&mut self.listen_ready) {
                if let Some(role) = self.acceptor.as_mut() {
                    role.accept_burst();
                }
            }
            let again = self.serve_round();
            let ended = self.ended;
            self.conns.retain_mut(|conn| {
                if conn.finished(ended) {
                    conn.close();
                    false
                } else {
                    true
                }
            });
            if stopping {
                break;
            }
            self.wait_ready(!again);
        }
        // Final drain (best effort): replies already queued still reach
        // the wire, then every socket closes so clients observe EOF
        // instead of a dangling half-open stream.
        for conn in &mut self.conns {
            conn.flush();
            conn.close();
        }
    }

    /// One service round: serve every readable connection, flush.
    /// Returns whether a connection has a whole frame left in its
    /// read-ahead, so the next round must not wait for `poll` — its socket
    /// may hold nothing to wake it.
    fn serve_round(&mut self) -> bool {
        if !self.ended {
            let server = &*self.server;
            for conn in &mut self.conns {
                if std::mem::take(&mut conn.readable) && conn.serve_ready(server) {
                    self.ended = true;
                    break;
                }
            }
            self.ended |= server.has_ended();
        }
        let mut again = false;
        for conn in &mut self.conns {
            conn.flush();
            if !self.ended && conn.reader.has_whole_frame() {
                conn.readable = true;
                again = true;
            }
        }
        again
    }

    /// Polls the wake pipe, the listener (shard 0) and every connection —
    /// `POLLOUT` only where an outbox has backlog — parking in `poll(2)`
    /// when `block` is set, then flags what fired, so the next round
    /// spends no syscall on a quiet wake pipe or listener.
    #[cfg(target_os = "linux")]
    fn wait_ready(&mut self, block: bool) {
        let fds = &mut self.fds;
        fds.clear();
        fds.push(sys::PollFd::readable(self.wake.fd()));
        if let Some(role) = &self.acceptor {
            fds.push(sys::PollFd::readable(role.listener.raw_fd_listener()));
        }
        let base = fds.len();
        for conn in &self.conns {
            let mut slot = sys::PollFd::readable(conn.fd);
            if !conn.outbox.is_empty() {
                slot.events |= sys::POLLOUT;
            }
            fds.push(slot);
        }
        let timeout_ms = if block { POLL_BACKSTOP_MS } else { 0 };
        match sys::poll_fds(fds, timeout_ms) {
            Ok(_) => {
                self.wake_ready = fds[0].revents != 0;
                self.listen_ready = self.acceptor.is_some() && fds[1].revents != 0;
                for (conn, slot) in self.conns.iter_mut().zip(&fds[base..]) {
                    if slot.revents != 0 {
                        conn.mark_readable();
                    }
                }
            }
            Err(_) => {
                // EINTR or a poll failure: presume everything is ready —
                // nonblocking reads make a wrong guess cheap.
                self.presume_ready();
            }
        }
    }

    /// Portable fallback: nap briefly (when `block` is set) and try
    /// everything.
    #[cfg(not(target_os = "linux"))]
    fn wait_ready(&mut self, block: bool) {
        self.presume_ready();
        if block {
            std::thread::sleep(FALLBACK_NAP);
        }
    }

    fn presume_ready(&mut self) {
        self.wake_ready = true;
        self.listen_ready = true;
        for conn in &mut self.conns {
            conn.mark_readable();
        }
    }
}

/// Exposes a running threaded server over a real socket: owns the
/// [`ServerHandle`] and the event-driven shards that serve every accepted
/// connection through its core (no per-connection threads).
///
/// Dropping the server (without [`SocketServer::wait`] /
/// [`SocketServer::shutdown`]) joins the shards and shuts the server
/// down, like dropping a bare [`ServerHandle`].
pub struct SocketServer {
    server: Option<ServerHandle>,
    addr: String,
    stop: Arc<AtomicBool>,
    wakers: Vec<WakeHandle>,
    shards: Vec<JoinHandle<()>>,
}

/// Default shard count: spread connection I/O and serving across a few
/// cores without a thread per core.
#[must_use]
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(1, 4))
}

impl std::fmt::Debug for SocketServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl SocketServer {
    /// Binds `server` to a TCP address (`"127.0.0.1:0"` picks a free
    /// port; read it back from [`SocketServer::local_addr`]) with
    /// [`default_shards`] shards.
    ///
    /// # Errors
    ///
    /// Propagates bind and shard-spawn failures.
    pub fn bind_tcp<A: ToSocketAddrs>(addr: A, server: ServerHandle) -> io::Result<Self> {
        Self::bind_tcp_sharded(addr, server, default_shards())
    }

    /// [`SocketServer::bind_tcp`] with an explicit shard count
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates bind and shard-spawn failures.
    pub fn bind_tcp_sharded<A: ToSocketAddrs>(
        addr: A,
        server: ServerHandle,
        shards: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        Self::start(listener, local, server, shards)
    }

    /// Binds `server` to a Unix-domain socket path, replacing a stale
    /// socket left by a previous run, with [`default_shards`] shards.
    /// Any other file at `path` is left alone, and the bind fails.
    ///
    /// # Errors
    ///
    /// Propagates bind and shard-spawn failures.
    #[cfg(unix)]
    pub fn bind_uds<P: AsRef<std::path::Path>>(path: P, server: ServerHandle) -> io::Result<Self> {
        Self::bind_uds_sharded(path, server, default_shards())
    }

    /// [`SocketServer::bind_uds`] with an explicit shard count
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates bind and shard-spawn failures.
    #[cfg(unix)]
    pub fn bind_uds_sharded<P: AsRef<std::path::Path>>(
        path: P,
        server: ServerHandle,
        shards: usize,
    ) -> io::Result<Self> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.as_ref();
        if std::fs::symlink_metadata(path).is_ok_and(|meta| meta.file_type().is_socket()) {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        let local = path.display().to_string();
        listener.set_nonblocking(true)?;
        Self::start(listener, local, server, shards)
    }

    /// Spawns the shards. Unlike the old acceptor this *returns* a
    /// spawn failure instead of panicking — and rolls already-started
    /// shards back down first, so no thread outlives a failed
    /// constructor.
    fn start<L: FrameListener>(
        listener: L,
        addr: String,
        server: ServerHandle,
        shards: usize,
    ) -> io::Result<Self> {
        let shards = shards.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let mut routes = Vec::with_capacity(shards);
        let mut parts = Vec::with_capacity(shards);
        for _ in 0..shards {
            let pipe = WakePipe::new()?;
            let (tx, rx) = channel::<ShardConn<L::Stream>>();
            routes.push((tx, pipe.handle()));
            parts.push((pipe, rx));
        }
        let wakers: Vec<WakeHandle> = routes.iter().map(|(_, wake)| wake.clone()).collect();
        let mut listener = Some(listener);
        let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
        for (index, (wake, intake)) in parts.into_iter().enumerate() {
            let acceptor = listener.take().map(|listener| AcceptRole {
                listener,
                routes: routes.clone(),
                next: 0,
            });
            let shard = Shard {
                server: server.server(),
                stop: Arc::clone(&stop),
                wake,
                intake,
                conns: Vec::new(),
                acceptor,
                ended: false,
                wake_ready: true,
                listen_ready: true,
                #[cfg(target_os = "linux")]
                fds: Vec::new(),
            };
            match std::thread::Builder::new()
                .name(format!("loadpart-mux-{index}"))
                .spawn(move || shard.run())
            {
                Ok(join) => joins.push(join),
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    for waker in &wakers {
                        waker.wake();
                    }
                    for join in joins {
                        let _ = join.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            server: Some(server),
            addr,
            stop,
            wakers,
            shards: joins,
        })
    }

    /// The bound address: `host:port` for TCP, the socket path for UDS.
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until service ends — a client shuts the server down over
    /// the wire ([`Message::Shutdown`]) or a scripted crash fires — then
    /// returns the served-offload count. The shards are stopped and joined
    /// afterwards — their final drain pushes any replies queued before the
    /// end, then closes every client socket.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when a serving thread (a shard or
    /// the in-process server thread) panicked.
    pub fn wait(mut self) -> Result<u64, ProtocolError> {
        let served = self.server.take().expect("not yet joined").wait();
        self.stop_shards();
        served
    }

    /// Shuts the server down from this process and returns the
    /// served-offload count, like [`ServerHandle::shutdown`]. Stops and
    /// joins every shard.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerPanicked`] when a serving thread (a shard or
    /// the in-process server thread) panicked.
    pub fn shutdown(mut self) -> Result<u64, ProtocolError> {
        let served = self.server.take().expect("not yet joined").shutdown();
        self.stop_shards();
        served
    }

    fn stop_shards(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for join in self.shards.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_shards();
        // A remaining ServerHandle shuts the server down on its own drop.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::spawn_server;
    use lp_profiler::PredictionModels;
    use std::sync::OnceLock;

    fn models() -> &'static (PredictionModels, PredictionModels) {
        static MODELS: OnceLock<(PredictionModels, PredictionModels)> = OnceLock::new();
        MODELS.get_or_init(|| crate::system::trained_models(150, 42))
    }

    fn tcp_server(k: f64) -> (SocketServer, TcpFrameChannel) {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), k);
        let sock = SocketServer::bind_tcp("127.0.0.1:0", server).expect("bind loopback");
        let chan = TcpFrameChannel::connect(sock.local_addr()).expect("connect");
        (sock, chan)
    }

    fn exchange<C: FrameChannel>(chan: &C, msg: &Message) -> Message {
        chan.send_split(msg.to_frame().expect("encodes"))
            .expect("send");
        let deadline = Instant::now() + Duration::from_secs(5);
        Message::decode_frame(chan.recv_split_deadline(deadline).expect("reply")).expect("decodes")
    }

    #[test]
    fn tcp_round_trip_load_query_and_probe() {
        let (sock, chan) = tcp_server(1.0);
        assert!(matches!(
            exchange(&chan, &Message::LoadQuery),
            Message::LoadReply { .. }
        ));
        assert_eq!(
            exchange(
                &chan,
                &Message::Probe {
                    payload: zero_payload(64 * 1024),
                }
            ),
            Message::ProbeAck
        );
        assert_eq!(sock.shutdown().expect("clean"), 0);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trip_load_query() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let server = spawn_server(graph, edge.clone(), 1.0);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("loadpart-uds-test-{}.sock", std::process::id()));
        let sock = SocketServer::bind_uds(&path, server).expect("bind uds");
        let chan = UdsFrameChannel::connect_path(&path).expect("connect");
        assert!(matches!(
            exchange(&chan, &Message::LoadQuery),
            Message::LoadReply { .. }
        ));
        assert_eq!(sock.shutdown().expect("clean"), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A stale socket at the path is replaced, but a regular file is not a
    /// stale socket: binding over it fails and leaves it intact.
    #[cfg(unix)]
    #[test]
    fn uds_bind_replaces_a_stale_socket_but_not_a_regular_file() {
        let (_, edge) = models();
        let spawn = || spawn_server(lp_models::alexnet(1), edge.clone(), 1.0);
        let dir = std::env::temp_dir();
        let stale = dir.join(format!("loadpart-uds-stale-{}.sock", std::process::id()));
        drop(SocketServer::bind_uds(&stale, spawn()).expect("first bind"));
        let sock = SocketServer::bind_uds(&stale, spawn()).expect("stale socket replaced");
        assert_eq!(sock.shutdown(), Ok(0));
        let _ = std::fs::remove_file(&stale);

        let notes = dir.join(format!("loadpart-uds-notes-{}.txt", std::process::id()));
        std::fs::write(&notes, b"keep me").expect("write the file");
        let err =
            SocketServer::bind_uds(&notes, spawn()).expect_err("a regular file is in the way");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err:?}");
        assert_eq!(std::fs::read(&notes).expect("still there"), b"keep me");
        std::fs::remove_file(&notes).expect("clean up");
    }

    /// Four shards serve eight connections' offloads at once, at every cut
    /// point: each connection's replies arrive in request order, and the
    /// server counts every offload served.
    #[test]
    fn shards_serve_concurrent_offloads_in_per_connection_order() {
        let (_, edge) = models();
        let graph = lp_models::alexnet(1);
        let points = graph.len() + 1;
        let handle = spawn_server(graph, edge.clone(), 1.0);
        let sock = SocketServer::bind_tcp_sharded("127.0.0.1:0", handle, 4).expect("bind loopback");
        let (sessions, per_session) = (8usize, 50usize);
        let clients: Vec<_> = (0..sessions)
            .map(|s| {
                let chan = TcpFrameChannel::connect(sock.local_addr()).expect("connect");
                std::thread::spawn(move || {
                    let requests = (0..per_session)
                        .map(|j| {
                            Message::OffloadRequest {
                                request_id: j as u64,
                                partition_point: ((s + j) % points) as u32,
                                precision: lp_graph::Precision::Fp32,
                                payload: Bytes::from(vec![0u8; 16]),
                            }
                            .to_frame()
                            .expect("encodes")
                        })
                        .collect();
                    chan.send_batch(requests).expect("sent");
                    let deadline = Instant::now() + Duration::from_secs(10);
                    for j in 0..per_session {
                        let reply = chan.recv_split_deadline(deadline).expect("answered");
                        match Message::decode_frame(reply).expect("decodes") {
                            Message::OffloadResponse { request_id, .. } => {
                                assert_eq!(request_id, j as u64, "per-connection FIFO");
                            }
                            other => panic!("expected an offload response, got {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        assert_eq!(sock.shutdown(), Ok((sessions * per_session) as u64));
    }

    #[test]
    fn recv_deadline_times_out_without_desync() {
        let (sock, chan) = tcp_server(1.0);
        // Nothing in flight: a short deadline must report Timeout...
        let early = Instant::now() + Duration::from_millis(30);
        assert_eq!(
            chan.recv_split_deadline(early).unwrap_err(),
            ProtocolError::Timeout
        );
        // ...and the stream must still be usable for a real exchange.
        assert!(matches!(
            exchange(&chan, &Message::LoadQuery),
            Message::LoadReply { .. }
        ));
        sock.shutdown().expect("clean");
    }

    #[test]
    fn oversized_declared_length_is_refused_and_poisons() {
        let (sock, chan) = tcp_server(1.0);
        // Open a raw socket and declare an absurd frame length.
        let raw = TcpStream::connect(sock.local_addr()).expect("connect");
        let mut writer = raw.try_clone().expect("clone");
        writer
            .write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
            .expect("write");
        writer.flush().expect("flush");
        // The server-side reader drops the connection instead of
        // allocating; the well-behaved channel keeps working.
        assert!(matches!(
            exchange(&chan, &Message::LoadQuery),
            Message::LoadReply { .. }
        ));
        drop(raw);
        // Client-side: an oversized *send* is refused before any bytes hit
        // the wire.
        let over = Frame {
            header: Bytes::from(vec![0u8; 8]),
            payload: zero_payload(MAX_FRAME_BYTES as usize),
        };
        assert_eq!(
            chan.send_split(over).unwrap_err(),
            ProtocolError::Oversized(MAX_FRAME_BYTES as usize + 8)
        );
        // The refused send wrote nothing: the channel still round-trips.
        assert!(matches!(
            exchange(&chan, &Message::LoadQuery),
            Message::LoadReply { .. }
        ));
        sock.shutdown().expect("clean");
    }

    #[test]
    fn server_disconnect_is_reported() {
        let (sock, chan) = tcp_server(1.0);
        assert_eq!(sock.shutdown().expect("clean"), 0);
        // The shards close every socket once the server has shut down.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut saw_disconnect = false;
        for _ in 0..50 {
            match chan.recv_split_deadline(deadline) {
                Err(ProtocolError::Disconnected) => {
                    saw_disconnect = true;
                    break;
                }
                Err(ProtocolError::Timeout) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_disconnect, "a dead server must surface as Disconnected");
        // Poisoned: every further receive disconnects immediately.
        assert_eq!(
            chan.recv_split_deadline(Instant::now() + Duration::from_secs(1))
                .unwrap_err(),
            ProtocolError::Disconnected
        );
    }

    #[test]
    fn wall_clock_bandwidth_measurement_is_positive_and_finite() {
        let (sock, chan) = tcp_server(1.0);
        let mbps = measure_bandwidth(&chan, 256 * 1024, Duration::from_secs(5)).expect("measured");
        assert!(mbps.is_finite() && mbps > 0.0, "loopback measured {mbps}");
        sock.shutdown().expect("clean");
    }

    /// `send_split` writes `u32-le length ++ header ++ payload` without
    /// flattening: the exact wire bytes arrive at a raw peer.
    #[test]
    fn send_split_wire_format_is_length_prefixed_header_then_payload() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let chan = TcpFrameChannel::connect(addr).expect("connect");
        let (mut peer, _) = listener.accept().expect("accept");
        let frame = Message::Probe {
            payload: Bytes::from(vec![0xEE; 4096]),
        }
        .to_frame()
        .expect("encodes");
        let expected_len = frame.len();
        chan.send_split(frame.clone()).expect("send");
        let mut prefix = [0u8; 4];
        peer.read_exact(&mut prefix).expect("prefix");
        assert_eq!(u32::from_le_bytes(prefix) as usize, expected_len);
        let mut wire = vec![0u8; expected_len];
        peer.read_exact(&mut wire).expect("body");
        assert_eq!(&wire[..frame.header.len()], frame.header.as_ref());
        assert_eq!(&wire[frame.header.len()..], frame.payload.as_ref());
        // The bytes on the wire are exactly the contiguous encoding.
        assert_eq!(Bytes::from(wire), frame.flatten());
    }

    /// What a [`Scripted`] stream returns for one `read`.
    enum Chunk {
        Data(Vec<u8>),
        Eof,
    }

    /// The state behind a [`Scripted`] stream.
    #[derive(Default)]
    struct Script {
        /// What the next reads return; once empty, a read waits out the
        /// armed read timeout (or fails at once when nonblocking) and
        /// reports `WouldBlock`, like a quiet socket.
        incoming: VecDeque<Chunk>,
        /// Every byte written.
        written: Vec<u8>,
        /// Most bytes one write accepts; `None` takes everything.
        write_cap: Option<usize>,
        read_timeout: Option<Duration>,
        nonblocking: bool,
        reads: usize,
        writes: usize,
        timeouts_set: usize,
    }

    /// An in-memory [`NetStream`] that counts the syscalls the framing
    /// layer would make.
    #[derive(Clone, Default)]
    struct Scripted(Arc<Mutex<Script>>);

    impl Scripted {
        fn script(&self) -> std::sync::MutexGuard<'_, Script> {
            self.0.lock().expect("script lock")
        }

        fn push(&self, bytes: &[u8]) {
            self.script()
                .incoming
                .push_back(Chunk::Data(bytes.to_vec()));
        }

        /// (reads, writes, read timeouts set) so far.
        fn calls(&self) -> (usize, usize, usize) {
            let s = self.script();
            (s.reads, s.writes, s.timeouts_set)
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut s = self.script();
            s.reads += 1;
            match s.incoming.pop_front() {
                Some(Chunk::Data(mut data)) => {
                    let n = data.len().min(buf.len());
                    buf[..n].copy_from_slice(&data[..n]);
                    if n < data.len() {
                        data.drain(..n);
                        s.incoming.push_front(Chunk::Data(data));
                    }
                    Ok(n)
                }
                Some(Chunk::Eof) => Ok(0),
                None => {
                    if !s.nonblocking {
                        let wait = s.read_timeout.expect("a blocking read needs a timeout");
                        drop(s);
                        std::thread::sleep(wait);
                    }
                    Err(io::ErrorKind::WouldBlock.into())
                }
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut s = self.script();
            s.writes += 1;
            let mut room = s.write_cap.unwrap_or(usize::MAX);
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(room);
                s.written.extend_from_slice(&buf[..take]);
                n += take;
                room -= take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl NetStream for Scripted {
        fn try_clone_stream(&self) -> io::Result<Self> {
            Ok(self.clone())
        }

        fn set_read_timeout_stream(&self, timeout: Option<Duration>) -> io::Result<()> {
            let mut s = self.script();
            s.timeouts_set += 1;
            s.read_timeout = timeout;
            Ok(())
        }

        fn shutdown_both(&self) -> io::Result<()> {
            Ok(())
        }

        fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
            self.script().nonblocking = nonblocking;
            Ok(())
        }

        #[cfg(unix)]
        fn raw_fd_stream(&self) -> RawFd {
            -1
        }
    }

    /// `u32-le len ++ encoding` of `msg`: its bytes on the wire.
    fn wire(msg: &Message) -> Vec<u8> {
        let body = msg.encode().expect("encodes");
        let mut out = u32::try_from(body.len())
            .expect("small")
            .to_le_bytes()
            .to_vec();
        out.extend_from_slice(&body);
        out
    }

    fn probe(len: usize) -> Message {
        Message::Probe {
            payload: Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
        }
    }

    fn budget(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn write_frame_is_one_gathered_write_per_frame() {
        let mut stream = Scripted::default();
        let frames = [probe(4096), Message::LoadQuery];
        for msg in &frames {
            write_frame(&mut stream, &msg.to_frame().expect("encodes")).expect("written");
        }
        assert_eq!(stream.calls().1, frames.len(), "one write call per frame");
        let expected: Vec<u8> = frames.iter().flat_map(wire).collect();
        assert_eq!(stream.script().written, expected);
    }

    fn frames(msgs: &[Message]) -> Vec<Frame> {
        msgs.iter()
            .map(|msg| msg.to_frame().expect("encodes"))
            .collect()
    }

    #[test]
    fn a_probe_and_query_batch_is_one_gathered_write() {
        let stream = Scripted::default();
        let chan = SocketChannel::from_stream(stream.clone()).expect("mock");
        let batch = [probe(8 * 1024), Message::LoadQuery];
        chan.send_batch(frames(&batch)).expect("written");
        assert_eq!(stream.calls().1, 1, "one write call for the batch");
        let expected: Vec<u8> = batch.iter().flat_map(wire).collect();
        assert_eq!(stream.script().written, expected);
    }

    #[test]
    fn a_batch_cut_inside_its_second_frame_resumes_at_the_right_byte() {
        let stream = Scripted::default();
        let chan = SocketChannel::from_stream(stream.clone()).expect("mock");
        let batch = [probe(100), Message::LoadQuery];
        // The first write stops one header byte into the load query.
        stream.script().write_cap = Some(wire(&batch[0]).len() + 5);
        chan.send_batch(frames(&batch)).expect("written");
        assert_eq!(stream.calls().1, 2, "one short write, one to finish");
        let written = std::mem::take(&mut stream.script().written);
        assert_eq!(written, batch.iter().flat_map(wire).collect::<Vec<u8>>());
        let replay = Scripted::default();
        replay.push(&written);
        let mut reader = FrameReader::new(replay);
        for msg in &batch {
            let frame = reader.read_frame(budget(500)).expect("a whole frame");
            assert_eq!(&Message::decode(frame).expect("decodes"), msg);
        }
    }

    #[test]
    fn an_oversized_frame_refuses_its_batch_before_any_byte_is_written() {
        let stream = Scripted::default();
        let chan = SocketChannel::from_stream(stream.clone()).expect("mock");
        let over = Frame {
            header: Bytes::from(vec![0u8; 8]),
            payload: zero_payload(MAX_FRAME_BYTES as usize),
        };
        let batch = vec![Message::LoadQuery.to_frame().expect("encodes"), over];
        assert_eq!(
            chan.send_batch(batch),
            Err(ProtocolError::Oversized(MAX_FRAME_BYTES as usize + 8))
        );
        assert_eq!(stream.calls().1, 0, "no write call");
        assert!(stream.script().written.is_empty());
    }

    #[test]
    fn partial_writes_resume_mid_slice() {
        let mut stream = Scripted::default();
        stream.script().write_cap = Some(3);
        let msg = probe(100);
        write_frame(&mut stream, &msg.to_frame().expect("encodes")).expect("written");
        let expected = wire(&msg);
        assert_eq!(stream.script().written, expected);
        assert_eq!(stream.calls().1, expected.len().div_ceil(3));
    }

    #[test]
    fn small_reply_costs_one_read_and_a_buffered_one_none() {
        let stream = Scripted::default();
        let mut reader = FrameReader::new(stream.clone());
        let reply = Message::LoadReply { k_micro: 1_250_000 };
        stream.push(&[wire(&reply), wire(&Message::ProbeAck)].concat());
        let first = reader.read_frame(budget(500)).expect("reply");
        assert_eq!(Message::decode(first).expect("decodes"), reply);
        assert_eq!(stream.calls().0, 1, "a small reply costs one read");
        // The second frame arrived with the first: no syscall at all.
        let second = reader.read_frame(budget(500)).expect("ack");
        assert_eq!(Message::decode(second).expect("decodes"), Message::ProbeAck);
        assert_eq!(stream.calls(), (1, 0, 1));
    }

    #[test]
    fn a_fresh_budget_of_the_same_length_reuses_the_read_timeout() {
        let stream = Scripted::default();
        let mut reader = FrameReader::new(stream.clone());
        for _ in 0..3 {
            stream.push(&wire(&Message::ProbeAck));
            reader.read_frame(budget(500)).expect("ack");
        }
        assert_eq!(
            stream.calls().2,
            1,
            "later 500 ms budgets reuse the timeout"
        );
        // A shorter budget must lower it, so no read outlasts a deadline.
        stream.push(&wire(&Message::ProbeAck));
        reader.read_frame(budget(50)).expect("ack");
        assert_eq!(stream.calls().2, 2);
        assert!(stream.script().read_timeout <= Some(Duration::from_millis(50)));
    }

    #[test]
    fn a_stalled_long_frame_times_out_by_its_deadline_then_resumes() {
        let stream = Scripted::default();
        let mut reader = FrameReader::new(stream.clone());
        let msg = probe(3 * READ_AHEAD);
        let bytes = wire(&msg);
        let (head, tail) = bytes.split_at(READ_AHEAD + 1000);
        stream.push(head);
        let deadline = budget(40);
        assert_eq!(reader.read_frame(deadline), Err(ProtocolError::Timeout));
        let late = Instant::now().saturating_duration_since(deadline);
        assert!(late < Duration::from_millis(50), "returned {late:?} late");
        stream.push(tail);
        let frame = reader.read_frame(budget(500)).expect("resumed");
        assert_eq!(Message::decode(frame).expect("decodes"), msg);
    }

    #[test]
    fn nonblocking_reader_resumes_a_long_frame_without_zero_filling_it() {
        let stream = Scripted::default();
        stream.set_nonblocking_stream(true).expect("mock");
        let mut reader = FrameReader::new(stream.clone());
        let msg = probe(2 * READ_AHEAD);
        let bytes = [wire(&msg), wire(&Message::LoadQuery)].concat();
        let (head, tail) = bytes.split_at(READ_AHEAD + 7);
        stream.push(head);
        assert_eq!(reader.poll_frame(), Ok(None));
        let long = reader.long.as_ref().expect("a long frame is open");
        assert_eq!(
            long.body.len(),
            long.got,
            "the body holds only bytes received"
        );
        // The rest arrives a byte at a time: every chunk is kept.
        for b in tail {
            stream.push(&[*b]);
        }
        // Each call stands for one readiness event; a short read ends one.
        let mut next = || {
            (0..=tail.len())
                .find_map(|_| reader.poll_frame().expect("intact"))
                .expect("complete")
        };
        assert_eq!(Message::decode(next()).expect("decodes"), msg);
        assert_eq!(
            Message::decode(next()).expect("decodes"),
            Message::LoadQuery
        );
        assert_eq!(reader.poll_frame(), Ok(None));
    }

    #[test]
    fn a_short_read_waits_for_the_next_readiness_event() {
        let stream = Scripted::default();
        stream.set_nonblocking_stream(true).expect("mock");
        let mut reader = FrameReader::new(stream.clone());
        stream.push(&[wire(&Message::LoadQuery), wire(&Message::LoadQuery)].concat());
        assert!(reader.poll_frame().expect("ok").is_some());
        assert!(reader.poll_frame().expect("ok").is_some());
        assert_eq!(reader.poll_frame(), Ok(None));
        assert_eq!(
            stream.calls().0,
            1,
            "two frames in one short read: one read"
        );
    }

    #[test]
    fn eof_and_oversized_lengths_poison_the_reader() {
        let stream = Scripted::default();
        let mut reader = FrameReader::new(stream.clone());
        stream.push(&wire(&Message::LoadQuery)[..3]);
        stream.script().incoming.push_back(Chunk::Eof);
        assert_eq!(
            reader.read_frame(budget(500)),
            Err(ProtocolError::Disconnected)
        );
        assert_eq!(
            reader.read_frame(budget(500)),
            Err(ProtocolError::Disconnected)
        );

        let stream = Scripted::default();
        let mut reader = FrameReader::new(stream.clone());
        stream.push(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert_eq!(
            reader.read_frame(budget(500)),
            Err(ProtocolError::Oversized(MAX_FRAME_BYTES as usize + 1))
        );
        assert!(reader.long.is_none(), "refused before any allocation");
        assert_eq!(
            reader.read_frame(budget(500)),
            Err(ProtocolError::Disconnected)
        );
    }
}
