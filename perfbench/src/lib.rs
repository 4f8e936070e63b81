//! Outside-in benchmark of the yoso-pss protocol stages.
//!
//! The binary (`src/main.rs`) runs one workload per invocation:
//! untraced runs give the end-to-end metrics, a traced run gives the
//! per-step board timeline ([`trace`]) and per-call kernel times
//! ([`probes`]). Everything is driven through the crates' public API;
//! no protocol crate is modified to be measured.

#![forbid(unsafe_code)]

pub mod probes;
pub mod report;
pub mod selftest;
pub mod stages;
pub mod trace;
