//! Workload generators for the v-Bundle evaluation (§IV–§V).
//!
//! - [`Trace`] — deterministic per-VM bandwidth-demand traces (constant,
//!   step, sinusoid, pulse): the workload variation v-Bundle exploits;
//! - [`SippGenerator`] — the SIPp-like call generator behind Figures
//!   12–13 (ramped call rate, failure and response-time model driven by
//!   granted bandwidth);
//! - [`IperfFlow`] — greedy interference flows that create the bandwidth
//!   bottleneck;
//! - [`SkewedLoad`] — the hot/cold utilization draw behind Figures 9–11
//!   (cluster mean 0.6226);
//! - [`Cdf`] — empirical CDFs for Figures 13 and 15.
//!
//! # Example
//!
//! ```
//! use vbundle_workloads::{SippGenerator, Cdf};
//! use vbundle_dcn::Bandwidth;
//! use vbundle_sim::{SimDuration, SimTime};
//! use rand::SeedableRng;
//!
//! let mut gen = SippGenerator::new(SimTime::ZERO);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // A starved second: only a tenth of the needed bandwidth.
//! let now = SimTime::from_secs(1);
//! let demand = gen.bw_demand_at(now);
//! let sample = gen.step(now, SimDuration::from_secs(1), demand / 10.0, &mut rng);
//! assert!(sample.failed > 0);
//! let cdf = Cdf::from_samples(gen.response_samples().to_vec());
//! assert!(cdf.fraction_at_or_below(10.0) < 0.5); // mostly slow calls
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod iperf;
mod scenario;
mod sipp;
mod trace;

pub use cdf::Cdf;
pub use iperf::IperfFlow;
pub use scenario::SkewedLoad;
pub use sipp::{SippGenerator, SippSample};
pub use trace::Trace;
