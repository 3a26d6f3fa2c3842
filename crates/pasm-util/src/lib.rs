//! # pasm-util — dependency-free workspace utilities
//!
//! The reproduction builds in fully offline environments, so everything the
//! workspace previously pulled from crates.io for plumbing (seeded random
//! data, JSON result files, stable hashing) lives here instead, implemented
//! on `std` alone:
//!
//! * [`rng`] — a seeded [SplitMix64](rng::Rng) generator for workload data,
//! * [`json`] — a small JSON value model with parser, writer and the
//!   [`ToJson`] trait the bench and server crates serialize
//!   through,
//! * [`hash`] — [FNV-1a](hash::Fnv1a), a stable `std::hash::Hasher` whose
//!   output does not change across processes (used for cache keys),
//! * [`crc`] — [CRC-32](crc::crc32) (IEEE), the record checksum the durable
//!   stores use to detect torn and corrupted log records,
//! * [`span`] — named trace spans on simulated timelines with JSONL
//!   serialization (the observability layer's event format).

pub mod crc;
pub mod hash;
pub mod json;
pub mod rng;
pub mod span;

pub use crc::crc32;
pub use hash::{fnv1a, Fnv1a};
pub use json::{Json, ToJson};
pub use rng::Rng;
pub use span::{SpanEvent, SpanLog, SPAN_SCHEMA_VERSION};
