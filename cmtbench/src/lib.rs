//! # cmtbench
//!
//! The layered benchmark of the CMT-bone and Nekbone mini-apps: four
//! named workloads run through the public entry points `cmt_bone::run`
//! and `nekbone::run` for the end-to-end figures, and a traced replay
//! that drives the same steps through the layers' public functions for
//! the per-layer figures. See `README.md` in this package for the metric
//! table and the reasons behind each workload.

pub mod e2e;
pub mod golden;
pub mod host;
pub mod layers;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
