//! Hardware latency models and the edge-GPU scheduler simulator.
//!
//! The paper's testbed (Table IV) is a Raspberry Pi 4 user-end device and a
//! Tesla T4 edge server shared with background inference tasks. This crate
//! substitutes both with calibrated simulators:
//!
//! * [`device::DeviceModel`] — analytic per-node latency on the user-end
//!   CPU: compute + memory terms with per-category efficiency, a cache-cliff
//!   nonlinearity and multiplicative measurement noise. Calibrated so VGG16
//!   local inference lands near the paper's 5.2 s.
//! * [`kernel::GpuModel`] — per-node GPU *kernel* cost on the idle T4
//!   (launch overhead vs roofline compute/memory time).
//! * [`times::NodeTimes`] — either model evaluated once over a graph's
//!   nodes: the table a request draws its noise from instead of
//!   re-deriving every node's noise-free time.
//! * [`gpu::GpuSim`] — a discrete-event GPU: one kernel at a time,
//!   **non-preemptive kernels**, round-robin **2 ms time slices** across
//!   contexts (preemption happens between kernels, exactly the §III-C
//!   mechanism), FIFO queues, and utilization accounting.
//! * [`load`] — the §II background-load generators: 7 processes running
//!   AlexNet periodically (30%–100%(l)) or ResNet152 back-to-back
//!   (100%(h)).
//!
//! Together these reproduce the paper's two key observations: single
//! kernels are load-insensitive (they fit within a slice), while multi-node
//! partitions stretch and fluctuate under heavy load because they are
//! preempted at kernel boundaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod gpu;
pub mod kernel;
pub mod load;
pub mod specs;
pub mod times;

pub use device::DeviceModel;
pub use gpu::{GpuSim, TaskId};
pub use kernel::GpuModel;
pub use load::{background_generators, LoadLevel};
pub use specs::{HardwareSpec, EDGE_SERVER_SPEC, USER_DEVICE_SPEC};
pub use times::NodeTimes;
