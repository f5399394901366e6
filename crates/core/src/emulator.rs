//! The client-side fault layer: one deterministic link emulator for any
//! [`FrameChannel`].
//!
//! [`EmulatedLink`] sits between the engine's wire backends and the real
//! channel (an in-process session or a socket). One [`LinkSpec`] scripts
//! what it does to frames:
//!
//! * **faults** — a [`FaultPlan`] drops, delays past the deadline,
//!   corrupts (flips the header's version byte) or duplicates frames by
//!   index: send faults index the frames the client attempts to send,
//!   receive faults the frames pulled off the inner channel;
//! * **timing** — latency, seeded jitter, a serialization rate limit,
//!   periodic stalls and a scripted connection reset, acting above the
//!   faults. Time is wall-clock, so the socket transport's real deadline
//!   machinery runs: a delivery that would cross the caller's deadline is
//!   held, reported as [`ProtocolError::Timeout`], and lands stale at the
//!   next receive, like a late reply on a real link. A spec without
//!   timing sleeps nothing and holds nothing past a deadline;
//! * **outage** — while a shared [`OutageSwitch`] is on, sends vanish and
//!   receives fail at once with [`ProtocolError::Timeout`]; nothing is
//!   counted and nothing sleeps.
//!
//! Everything is keyed by frame counts and seeds, never by wall-clock
//! randomness, so runs replay bit-identically. Frames cross as
//! header/payload [`Frame`]s, never flattened. The server-side
//! counterpart is [`crate::threaded::ServerFaultSpec`].

use crate::engine::splitmix64;
use crate::protocol::{Frame, ProtocolError};
use crate::threaded::FrameChannel;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-frame overhead the rate limiter charges on top of the frame bytes
/// (the length prefix the socket transport writes).
const FRAME_OVERHEAD_BYTES: usize = 4;

/// One scripted perturbation of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The frame vanishes.
    Drop,
    /// The frame arrives after the current exchange's deadline (receive
    /// side) or after the next frame (send side).
    Delay,
    /// The frame arrives with its version byte flipped, so decoding fails.
    Corrupt,
    /// The frame arrives twice.
    Duplicate,
}

/// A deterministic script of frame faults, keyed by 0-based frame index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    send: BTreeMap<u64, FaultAction>,
    recv: BTreeMap<u64, FaultAction>,
}

impl FaultPlan {
    /// An empty plan (every frame passes through untouched).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `action` to the `index`-th frame the client sends.
    #[must_use]
    pub fn on_send(mut self, index: u64, action: FaultAction) -> Self {
        self.send.insert(index, action);
        self
    }

    /// Applies `action` to the `index`-th frame received from the server.
    #[must_use]
    pub fn on_recv(mut self, index: u64, action: FaultAction) -> Self {
        self.recv.insert(index, action);
        self
    }
}

/// A shared on/off switch that simulates a server outage from the client
/// side of its links (a crashed or partitioned server looks the same to a
/// client: frames go nowhere and replies never come).
#[derive(Debug, Clone, Default)]
pub struct OutageSwitch(Arc<AtomicBool>);

impl OutageSwitch {
    /// A new switch, initially open (traffic flows).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks (`true`) or restores (`false`) every link holding this
    /// switch.
    pub fn set_blocked(&self, blocked: bool) {
        self.0.store(blocked, Ordering::SeqCst);
    }

    /// Whether the outage is currently active.
    #[must_use]
    pub fn blocked(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

impl PartialEq for OutageSwitch {
    /// Two switches are equal when they are the same shared switch.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The emulated link's parameters. The default is a perfect link: zero
/// latency and jitter, unlimited rate, no stalls, no reset, no faults and
/// no outage switch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay added to every delivery.
    pub latency: Duration,
    /// Upper bound on the per-frame jitter added on top of `latency`; the
    /// actual value is a deterministic function of `seed` and the frame
    /// index.
    pub jitter: Duration,
    /// Serialization rate limit in Mbps; `0.0` means unlimited. Modelled
    /// as a busy-until virtual clock: back-to-back frames queue behind
    /// each other's serialization time, like a token bucket with burst 1.
    pub rate_mbps: f64,
    /// Every `stall_every`-th received frame (1-based) is stalled by
    /// [`LinkSpec::stall`] on top of everything else; `0` disables stalls.
    pub stall_every: u64,
    /// Duration of one periodic stall.
    pub stall: Duration,
    /// Hard connection reset once this many frames (sends + receives)
    /// have crossed the link: every operation from then on reports
    /// [`ProtocolError::Disconnected`], like a peer's RST.
    pub reset_after_frames: Option<u64>,
    /// Seed for the deterministic jitter sequence.
    pub seed: u64,
    /// Discrete frame faults to inject underneath the link model.
    pub faults: FaultPlan,
    /// While this shared switch is on, the link is dark.
    pub outage: Option<OutageSwitch>,
}

/// Counters the emulator accumulates across a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames that entered the link client → server.
    pub frames_sent: u64,
    /// Frames delivered server → client (including late ones).
    pub frames_received: u64,
    /// Bytes (incl. framing overhead) sent client → server.
    pub bytes_sent: u64,
    /// Bytes (incl. framing overhead) received server → client.
    pub bytes_received: u64,
    /// Periodic stalls that fired.
    pub stalls: u64,
    /// Deliveries that crossed the caller's deadline and were held.
    pub held_past_deadline: u64,
    /// Whether the scripted connection reset has fired (0 or 1).
    pub resets: u64,
}

#[derive(Debug, Default)]
struct LinkState {
    stats: LinkStats,
    /// Frames pulled off the inner channel: the receive-fault index.
    pulled: u64,
    /// Scripted faults that fired.
    injected: u64,
    /// Virtual serialization clock: the instant the link is next free.
    busy_until: Option<Instant>,
    /// Sends the plan delayed; they follow the next send.
    delayed_sends: VecDeque<Frame>,
    /// Receives the plan delayed or duplicated; they cross the timing
    /// model at the next receive.
    faulted: VecDeque<Frame>,
    /// Deliveries held past a deadline; they land at the next receive.
    late: VecDeque<Frame>,
}

/// The deterministic jitter for frame `idx` under `seed`: a fraction of
/// `max` derived from `splitmix64(seed ^ idx)`.
fn jitter_for(seed: u64, idx: u64, max: Duration) -> Duration {
    if max.is_zero() {
        return Duration::ZERO;
    }
    // Top 53 bits → uniform fraction in [0, 1).
    let fraction = (splitmix64(&mut (seed ^ idx)) >> 11) as f64 / (1u64 << 53) as f64;
    max.mul_f64(fraction)
}

/// Flips the header's version byte so any decoder rejects the frame. Only
/// the header is copied; the payload is shared.
fn corrupt(frame: Frame) -> Frame {
    let Some((&version, rest)) = frame.header.split_first() else {
        return frame;
    };
    let mut header = BytesMut::with_capacity(frame.header.len());
    header.put_u8(version ^ 0xAA);
    header.put_slice(rest);
    Frame {
        header: header.freeze(),
        payload: frame.payload,
    }
}

/// A [`FrameChannel`] middlebox emulating a lossy, slow, resettable link
/// around any inner channel (in-process or socket). It owns whatever
/// dereferences to that channel: a reference, or a box.
#[derive(Debug)]
pub struct EmulatedLink<C> {
    inner: C,
    spec: LinkSpec,
    state: Mutex<LinkState>,
}

impl<C> EmulatedLink<C>
where
    C: Deref,
    C::Target: FrameChannel,
{
    /// Wraps `inner` with the link model described by `spec`.
    pub fn new(inner: C, spec: LinkSpec) -> Self {
        Self {
            inner,
            spec,
            state: Mutex::new(LinkState::default()),
        }
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.lock().stats
    }

    /// How many discrete [`FaultPlan`] faults have fired so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.lock().injected
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        // Counters and held frames stay valid across a panic in another
        // holder: recover the guard instead of propagating poison.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn dark(&self) -> bool {
        self.spec.outage.as_ref().is_some_and(OutageSwitch::blocked)
    }

    /// Serialization time of `bytes` at the configured rate.
    fn serialization(&self, bytes: usize) -> Duration {
        if self.spec.rate_mbps <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 * 8.0 / (self.spec.rate_mbps * 1e6))
    }

    /// `Err` once the link has reset. The reset fires at the first
    /// operation after `reset_after_frames` frames have crossed.
    fn check_reset(&self, state: &mut LinkState) -> Result<(), ProtocolError> {
        let crossed = state.stats.frames_sent + state.stats.frames_received;
        if self.spec.reset_after_frames.is_some_and(|n| crossed >= n) {
            state.stats.resets = 1;
        }
        if state.stats.resets > 0 {
            return Err(ProtocolError::Disconnected);
        }
        Ok(())
    }

    /// Counts one delivery server → client.
    fn deliver(state: &mut LinkState, frame: &Frame) {
        state.stats.frames_received += 1;
        state.stats.bytes_received += (frame.len() + FRAME_OVERHEAD_BYTES) as u64;
    }

    /// Pulls the next frame off the inner channel and applies the plan's
    /// receive faults to it.
    fn pull(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        loop {
            let frame = self.inner.recv_split_deadline(deadline)?;
            let mut state = self.lock();
            let idx = state.pulled;
            state.pulled += 1;
            let action = self.spec.faults.recv.get(&idx).copied();
            if action.is_some() {
                state.injected += 1;
            }
            match action {
                Some(FaultAction::Drop) => {} // vanished; keep waiting
                Some(FaultAction::Delay) => {
                    state.faulted.push_back(frame);
                    return Err(ProtocolError::Timeout);
                }
                Some(FaultAction::Corrupt) => return Ok(corrupt(frame)),
                Some(FaultAction::Duplicate) => {
                    state.faulted.push_back(frame.clone());
                    return Ok(frame);
                }
                None => return Ok(frame),
            }
        }
    }
}

impl<C> FrameChannel for EmulatedLink<C>
where
    C: Deref,
    C::Target: FrameChannel,
{
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        self.send_split(Frame::from_contiguous(frame))
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        self.recv_split_deadline(deadline).map(Frame::flatten)
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        if self.dark() {
            return Ok(());
        }
        let wire_bytes = frame.len() + FRAME_OVERHEAD_BYTES;
        let (action, pace_until) = {
            let mut state = self.lock();
            self.check_reset(&mut state)?;
            let idx = state.stats.frames_sent;
            state.stats.frames_sent += 1;
            state.stats.bytes_sent += wire_bytes as u64;
            let action = self.spec.faults.send.get(&idx).copied();
            if action.is_some() {
                state.injected += 1;
            }
            // Claim the link's serialization slot: back-to-back senders
            // queue behind each other (token bucket, burst of one frame).
            let now = Instant::now();
            let start = state.busy_until.map_or(now, |b| b.max(now));
            let done = start + self.serialization(wire_bytes);
            state.busy_until = Some(done);
            (action, done)
        };
        std::thread::sleep(pace_until.saturating_duration_since(Instant::now()));
        let result = match action {
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Delay) => {
                self.lock().delayed_sends.push_back(frame);
                return Ok(()); // released after the next send
            }
            Some(FaultAction::Corrupt) => self.inner.send_split(corrupt(frame)),
            Some(FaultAction::Duplicate) => {
                self.inner.send_split(frame.clone())?;
                self.inner.send_split(frame)
            }
            None => self.inner.send_split(frame),
        };
        // Release frames delayed earlier: they arrive out of order, after
        // the frame just sent.
        let delayed = std::mem::take(&mut self.lock().delayed_sends);
        for held in delayed {
            self.inner.send_split(held)?;
        }
        result
    }

    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        if self.dark() {
            return Err(ProtocolError::Timeout);
        }
        let faulted = {
            let mut state = self.lock();
            self.check_reset(&mut state)?;
            if let Some(late) = state.late.pop_front() {
                // A delivery that crossed an earlier deadline lands now,
                // as a stale frame.
                Self::deliver(&mut state, &late);
                return Ok(late);
            }
            state.faulted.pop_front()
        };
        let frame = match faulted {
            Some(frame) => frame,
            None => self.pull(deadline)?,
        };
        let mut state = self.lock();
        let idx = state.stats.frames_received;
        let mut delay = self.spec.latency
            + jitter_for(self.spec.seed, idx, self.spec.jitter)
            + self.serialization(frame.len() + FRAME_OVERHEAD_BYTES);
        if self.spec.stall_every != 0 && (idx + 1).is_multiple_of(self.spec.stall_every) {
            state.stats.stalls += 1;
            delay += self.spec.stall;
        }
        // Only a modelled delay can cross the caller's deadline: a plain
        // link delivers what the inner channel returned, as it returned it.
        let now = Instant::now();
        if !delay.is_zero() && now + delay > deadline {
            // Hold the frame and burn the remaining budget, like a real
            // late reply.
            state.stats.held_past_deadline += 1;
            state.late.push_back(frame);
            drop(state);
            std::thread::sleep(deadline.saturating_duration_since(now));
            return Err(ProtocolError::Timeout);
        }
        Self::deliver(&mut state, &frame);
        drop(state);
        std::thread::sleep(delay);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Message;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A loopback channel: every frame sent is received back as is, its
    /// header and payload segments still apart.
    struct Loopback {
        tx: Sender<Frame>,
        rx: Mutex<Receiver<Frame>>,
    }

    impl Loopback {
        fn new() -> Self {
            let (tx, rx) = channel();
            Self {
                tx,
                rx: Mutex::new(rx),
            }
        }
    }

    impl FrameChannel for Loopback {
        fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
            self.send_split(Frame::from_contiguous(frame))
        }

        fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
            self.recv_split_deadline(deadline).map(Frame::flatten)
        }

        fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
            self.tx.send(frame).map_err(|_| ProtocolError::Disconnected)
        }

        fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
            let timeout = deadline.saturating_duration_since(Instant::now());
            self.rx
                .lock()
                .expect("lock poisoned")
                .recv_timeout(timeout)
                .map_err(|_| ProtocolError::Timeout)
        }
    }

    /// A plain link that only executes `plan`.
    fn faulty(loopback: &Loopback, plan: FaultPlan) -> EmulatedLink<&Loopback> {
        EmulatedLink::new(
            loopback,
            LinkSpec {
                faults: plan,
                ..LinkSpec::default()
            },
        )
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(250)
    }

    fn tight() -> Instant {
        Instant::now() + Duration::from_millis(10)
    }

    #[test]
    fn perfect_link_passes_frames_through() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(&loopback, LinkSpec::default());
        link.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"hello")
        );
        let stats = link.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.frames_received, 1);
        assert_eq!(stats.stalls, 0);
        assert_eq!(stats.resets, 0);
        assert_eq!(link.faults_injected(), 0);
    }

    #[test]
    fn frames_cross_the_link_uncopied() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                latency: Duration::from_millis(1),
                faults: FaultPlan::new()
                    .on_send(0, FaultAction::Corrupt)
                    .on_recv(1, FaultAction::Duplicate),
                ..LinkSpec::default()
            },
        );
        let frame = Message::Probe {
            payload: Bytes::from(vec![7u8; 4096]),
        }
        .to_frame()
        .expect("encodes");
        link.send_split(frame.clone()).unwrap();
        link.send_split(frame.clone()).unwrap();
        // The corrupted copy: a fresh header, the very same payload.
        let corrupted = link.recv_split_deadline(soon()).unwrap();
        assert_eq!(corrupted.header[0], frame.header[0] ^ 0xAA);
        assert_eq!(corrupted.header[1..], frame.header[1..]);
        assert_eq!(corrupted.payload.as_ptr(), frame.payload.as_ptr());
        // The clean frame and its duplicate share it too.
        for _ in 0..2 {
            let got = link.recv_split_deadline(soon()).unwrap();
            assert_eq!(got, frame);
            assert_eq!(got.payload.as_ptr(), frame.payload.as_ptr());
        }
    }

    #[test]
    fn dropped_send_never_arrives() {
        let loopback = Loopback::new();
        let link = faulty(&loopback, FaultPlan::new().on_send(0, FaultAction::Drop));
        link.send(Bytes::from_static(b"gone")).unwrap();
        assert_eq!(link.recv_deadline(tight()), Err(ProtocolError::Timeout));
        link.send(Bytes::from_static(b"next")).unwrap();
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"next")
        );
        assert_eq!(link.faults_injected(), 1);
    }

    #[test]
    fn delayed_recv_times_out_then_lands_late() {
        let loopback = Loopback::new();
        let link = faulty(&loopback, FaultPlan::new().on_recv(0, FaultAction::Delay));
        link.send(Bytes::from_static(b"late")).unwrap();
        assert_eq!(link.recv_deadline(soon()), Err(ProtocolError::Timeout));
        // The held frame lands on the next receive, as a stale frame would.
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"late")
        );
    }

    #[test]
    fn corrupt_flips_the_version_byte() {
        let loopback = Loopback::new();
        let link = faulty(&loopback, FaultPlan::new().on_recv(0, FaultAction::Corrupt));
        link.send(Bytes::from_static(&[1, 3])).unwrap();
        let got = link.recv_deadline(soon()).unwrap();
        assert_eq!(got[0], 1 ^ 0xAA);
        assert_eq!(got[1], 3);
        // An actual protocol frame now fails to decode.
        let frame = Message::LoadQuery.to_frame().expect("encodes");
        assert!(Message::decode(corrupt(frame).flatten()).is_err());
    }

    #[test]
    fn duplicate_recv_delivers_twice() {
        let loopback = Loopback::new();
        let link = faulty(
            &loopback,
            FaultPlan::new().on_recv(0, FaultAction::Duplicate),
        );
        link.send(Bytes::from_static(b"twin")).unwrap();
        for _ in 0..2 {
            assert_eq!(
                link.recv_deadline(soon()).unwrap(),
                Bytes::from_static(b"twin")
            );
        }
        assert_eq!(link.faults_injected(), 1);
    }

    #[test]
    fn delayed_send_arrives_after_the_next_frame() {
        let loopback = Loopback::new();
        let link = faulty(&loopback, FaultPlan::new().on_send(0, FaultAction::Delay));
        link.send(Bytes::from_static(b"first")).unwrap();
        link.send(Bytes::from_static(b"second")).unwrap();
        // Reordered: "second" overtook the delayed "first".
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"second")
        );
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"first")
        );
    }

    #[test]
    fn jitter_sequence_is_deterministic_and_bounded() {
        let max = Duration::from_millis(20);
        for idx in 0..256 {
            let a = jitter_for(7, idx, max);
            let b = jitter_for(7, idx, max);
            assert_eq!(a, b, "same seed and index must agree");
            assert!(a < max, "jitter {a:?} must stay under the bound");
        }
        // Different seeds decorrelate the sequence.
        assert_ne!(jitter_for(1, 3, max), jitter_for(2, 3, max));
        // Zero bound means zero jitter, always.
        assert_eq!(jitter_for(9, 4, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn rate_limit_paces_sends() {
        let loopback = Loopback::new();
        // 8 Mbps: 10 kB ≈ 10 ms of serialization per frame.
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                rate_mbps: 8.0,
                ..LinkSpec::default()
            },
        );
        let start = Instant::now();
        for _ in 0..3 {
            link.send(Bytes::from(vec![0u8; 10_000])).unwrap();
        }
        let elapsed = start.elapsed();
        // 3 frames × ~10 ms each, minus scheduling slop.
        assert!(
            elapsed >= Duration::from_millis(25),
            "paced only {elapsed:?}"
        );
    }

    #[test]
    fn delivery_past_the_deadline_times_out_then_lands_late() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                latency: Duration::from_millis(50),
                ..LinkSpec::default()
            },
        );
        link.send(Bytes::from_static(b"late")).unwrap();
        // 10 ms budget < 50 ms latency: the reply crosses the deadline.
        assert_eq!(link.recv_deadline(tight()), Err(ProtocolError::Timeout));
        assert_eq!(link.stats().held_past_deadline, 1);
        // The held frame lands on the next (patient) receive.
        let patient = Instant::now() + Duration::from_secs(1);
        assert_eq!(
            link.recv_deadline(patient).unwrap(),
            Bytes::from_static(b"late")
        );
        assert_eq!(link.stats().frames_received, 1);
    }

    #[test]
    fn periodic_stalls_fire_on_schedule() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                stall_every: 2,
                stall: Duration::from_millis(30),
                ..LinkSpec::default()
            },
        );
        // Frames 1 and 3 (1-based: the 2nd and 4th) stall.
        for _ in 0..4 {
            link.send(Bytes::from_static(b"x")).unwrap();
        }
        for _ in 0..4 {
            link.recv_deadline(soon()).unwrap();
        }
        assert_eq!(link.stats().stalls, 2);
    }

    #[test]
    fn scripted_reset_disconnects_permanently() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                reset_after_frames: Some(2),
                ..LinkSpec::default()
            },
        );
        link.send(Bytes::from_static(b"a")).unwrap();
        link.recv_deadline(soon()).unwrap();
        // Frame 3 crosses the threshold: hard reset, from now on the link
        // is dead in both directions — and the error is not transient, so
        // the engine falls back instead of burning retries.
        let err = link.send(Bytes::from_static(b"b")).unwrap_err();
        assert_eq!(err, ProtocolError::Disconnected);
        assert!(!err.is_transient());
        assert_eq!(link.recv_deadline(soon()), Err(ProtocolError::Disconnected));
        assert_eq!(link.stats().resets, 1);
    }

    /// Regression: the reset budget used to count every receive call —
    /// timed-out ones included — and a frame held past its deadline once
    /// when held and again when delivered.
    #[test]
    fn reset_counts_only_frames_that_crossed() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                reset_after_frames: Some(2),
                ..LinkSpec::default()
            },
        );
        // Two receives time out: nothing crossed, so the send still goes.
        for _ in 0..2 {
            assert_eq!(link.recv_deadline(tight()), Err(ProtocolError::Timeout));
        }
        link.send(Bytes::from_static(b"a")).unwrap();
        assert_eq!(
            (link.stats().frames_sent, link.stats().resets),
            (1, 0),
            "{:?}",
            link.stats()
        );

        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                latency: Duration::from_millis(50),
                reset_after_frames: Some(3),
                ..LinkSpec::default()
            },
        );
        link.send(Bytes::from_static(b"a")).unwrap();
        assert_eq!(link.recv_deadline(tight()), Err(ProtocolError::Timeout));
        let patient = Instant::now() + Duration::from_secs(1);
        assert_eq!(
            link.recv_deadline(patient).unwrap(),
            Bytes::from_static(b"a")
        );
        // One send and one (late) delivery: the third frame still crosses.
        link.send(Bytes::from_static(b"b")).unwrap();
        assert_eq!(
            link.send(Bytes::from_static(b"c")),
            Err(ProtocolError::Disconnected)
        );
        let stats = link.stats();
        assert_eq!((stats.frames_sent, stats.frames_received), (2, 1));
        assert_eq!((stats.held_past_deadline, stats.resets), (1, 1));
    }

    #[test]
    fn embedded_fault_plan_rides_the_link() {
        let loopback = Loopback::new();
        let link = EmulatedLink::new(
            &loopback,
            LinkSpec {
                latency: Duration::from_millis(1),
                faults: FaultPlan::new().on_send(0, FaultAction::Drop),
                ..LinkSpec::default()
            },
        );
        link.send(Message::LoadQuery.encode().expect("encodes"))
            .unwrap();
        // The scripted drop swallowed it underneath the link model.
        assert_eq!(
            link.recv_deadline(Instant::now() + Duration::from_millis(20)),
            Err(ProtocolError::Timeout)
        );
        assert_eq!(link.faults_injected(), 1);
        // Later frames pass.
        link.send(Bytes::from_static(b"ok")).unwrap();
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"ok")
        );
    }

    #[test]
    fn outage_drops_sends_and_times_out_recvs_while_blocked() {
        let loopback = Loopback::new();
        let switch = OutageSwitch::new();
        let link = EmulatedLink::new(
            Box::new(loopback) as Box<dyn FrameChannel>,
            LinkSpec {
                latency: Duration::from_millis(1),
                faults: FaultPlan::new().on_send(0, FaultAction::Drop),
                outage: Some(switch.clone()),
                ..LinkSpec::default()
            },
        );
        switch.set_blocked(true);
        // Blocked: sends vanish, receives time out immediately (well
        // under the generous deadline), and nothing is counted.
        link.send(Bytes::from_static(b"dark")).unwrap();
        let started = Instant::now();
        let err = link.recv_deadline(Instant::now() + Duration::from_secs(5));
        assert_eq!(err, Err(ProtocolError::Timeout));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(link.stats(), LinkStats::default());
        assert_eq!(link.faults_injected(), 0);
        // Restored: the dark frame never arrives, and send 0 is the first
        // frame sent after the outage.
        switch.set_blocked(false);
        link.send(Bytes::from_static(b"dropped")).unwrap();
        link.send(Bytes::from_static(b"lit")).unwrap();
        assert_eq!(
            link.recv_deadline(soon()).unwrap(),
            Bytes::from_static(b"lit")
        );
        assert_eq!(link.faults_injected(), 1);
    }
}
