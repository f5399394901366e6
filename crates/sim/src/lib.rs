//! Deterministic discrete-event simulation core.
//!
//! Everything time-related in the LoADPart reproduction — the GPU scheduler,
//! the network link, the runtime profilers and the end-to-end scenario
//! drivers — runs on this crate's logical clock. Simulations are fully
//! deterministic given a seed: the event queue breaks time ties by insertion
//! order and all randomness flows through seeded [`rand::rngs::StdRng`]s.
//!
//! # Examples
//!
//! ```
//! use lp_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(2), "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "first");
//! assert_eq!(t.as_millis_f64(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod rng;
pub mod time;

pub use events::EventQueue;
pub use rng::{lognormal_factor, lognormal_factors, uniform_in};
pub use time::{SimDuration, SimTime};
