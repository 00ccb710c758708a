//! # polygen-workload — synthetic federations for the benchmark harness
//!
//! The paper evaluated on three proprietary MIT databases and two Reuters
//! feeds; none are available, and none are needed — the polygen machinery
//! is value-agnostic. This crate generates *seeded, deterministic*
//! federations with the same shape at arbitrary scale:
//!
//! * [`config::WorkloadConfig`] — source count, entity pool, coverage
//!   (overlap), detail-relation size, category skew, conflict rate.
//! * [`generator`] — builds a full [`polygen_catalog::scenario::Scenario`]
//!   (dictionary + schema + local databases) plus raw flat/tagged
//!   relations for algebra microbenches.
//! * [`queries`] — canned and random query shapes over the generated
//!   schema.
//! * [`clients`] — the closed-loop multi-client driver: N deterministic
//!   clients issuing a weighted query mix with think time, concurrently
//!   ([`clients::drive`]) or as a sequential baseline
//!   ([`clients::replay`]). A script is a list of
//!   `polygen_serve::request::Request`s, so one driver runs the mix in
//!   process or over any transport that speaks the envelope.
//! * [`zipf`] — the category-skew sampler.

pub mod clients;
pub mod config;
pub mod generator;
pub mod queries;
pub mod zipf;

pub use clients::{drive, replay, ClientMix, DriveReport, MixWeights};
pub use config::{derive_rng, RngStream, WorkloadConfig};
pub use generator::{generate, random_flat_relation, random_polygen_relation};
