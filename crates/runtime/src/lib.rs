//! # cmt-runtime
//!
//! The driver runtime CMT-bone and Nekbone share: everything around the
//! physics. The paper's Fig. 7 runs both on identical setups under one
//! gather–scatter autotune protocol, so this is one program:
//! [`RuntimeConfig`] (the run environment and its validation), [`run`]
//! (World assembly, the run, the host-side merge), the rank-side phases
//! [`setup`], [`restart_checkpoint`] and [`verify_sweep`], the common
//! [`RankOutput`] prefix, the shared [`RuntimeReport`], and the shared
//! [`cli`] flags.

#![warn(missing_docs)]

pub mod cli;
mod config;
mod host;
mod rank;

pub use config::{Knobs, RuntimeConfig};
pub use host::{render_comm, run, Finished, RuntimeReport};
pub use rank::{restart_checkpoint, setup, verify_sweep, Choices, RankOutput};
