//! # flashsim — software-defined flash substrate for SEMEL/MILANA
//!
//! A functional + timing model of the storage stack the paper builds on
//! (§2.2, §3.1, §5.1):
//!
//! - [`nand`] — an Open-Channel-SSD-style NAND device: page-grain programs,
//!   block-grain erases, sequential programming, parallel channels, bounded
//!   queue depth, wear accounting, and the paper's 50 µs / 100 µs / 1 ms
//!   read/program/erase timings;
//! - [`pftl`] — a generic page-mapped log-structured FTL (the "standard
//!   FTL" baseline);
//! - [`mvstore`] — the multi-version core MFTL and VFTL share: per-key
//!   version chains, a packer that fills pages with small tuples within a
//!   bounded delay, watermark pruning, and GC relocation, over a
//!   [`mvstore::Medium`] that decides where packed pages go;
//! - [`mftl`] — **the paper's contribution**: the core over raw NAND, so
//!   keys map directly to physical tuple locations and one pass
//!   garbage-collects flash and versions together;
//! - [`vftl`] — the split baseline: the core over LBAs of the generic FTL
//!   (two mapping steps, two GCs, double over-provisioning);
//! - [`sftl`] — a single-version baseline (no snapshot reads);
//! - [`dram`] — a battery-backed-DRAM/NVM-speed multi-version store;
//! - [`dftl`] — the §3.1 future-work extension: demand-paged mapping for
//!   servers whose DRAM cannot hold the whole table;
//! - [`oob`] — per-page out-of-band metadata (key, version, epoch, floor,
//!   checksum) that makes mapping tables reconstructible from flash alone
//!   after a power failure (§4.5 recovery);
//! - [`backend`] — one enum over all four so servers swap backends freely.
//!
//! All stores share the SEMEL semantics: versions are `(timestamp, client)`
//! stamps, reads are snapshot reads ("youngest version ≤ t"), stale primary
//! writes are rejected for at-most-once, replicated writes may arrive in any
//! order, and a watermark bounds version history for GC.

#![warn(missing_docs)]

pub mod backend;
pub mod dftl;
pub mod dram;
pub mod mftl;
pub mod mvstore;
pub mod nand;
pub mod oob;
pub mod pftl;
pub mod sftl;
pub mod types;
pub mod vftl;

pub use backend::{Backend, BackendKind, MountReport};
pub use nand::{NandConfig, NandDevice, PhysLoc};
pub use oob::{PageOob, ScannedPage};
pub use types::{value, Key, StoreError, StoreStats, TupleRecord, Value, VersionedValue};
