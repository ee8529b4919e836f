//! Versioned, zero-dependency on-disk persistence for pipeline artifacts.
//!
//! The flow-level artifact store makes warm work nearly free *within* one
//! process; this crate is what lets that warmth survive a restart. It is a
//! deliberately dumb layer: an atomic, corruption-tolerant
//! `(kind, key) → bytes` record file plus the little-endian
//! [`ByteWriter`]/[`ByteReader`] primitives the artifact codecs (which
//! live in `isl-hls`, next to the types they encode) are written with.
//! Nothing here knows what a calibration or a certificate is.
//!
//! # On-disk record format
//!
//! A store file is a fixed header followed by zero or more framed records
//! (all integers little-endian):
//!
//! ```text
//! file   := header record*
//! header := magic "ISLP"            4 bytes   (FILE_MAGIC)
//!           format_version: u32     container layout version (FORMAT_VERSION)
//!           app_version:    u64     artifact-codec version of the writer
//! record := rec_magic C0 DE 0D 0A   4 bytes   (REC_MAGIC, the resync marker)
//!           body_len:  u32          bytes of `body`
//!           body      := kind:    u8          artifact-kind discriminant
//!                        stamp:   u64         logical LRU access stamp
//!                        key_len: u32
//!                        key:     [u8; key_len]
//!                        value:   [u8; body_len - 13 - key_len]
//!           checksum:  u64          FNV-1a over `body`
//! ```
//!
//! # Versioning and invalidation
//!
//! Two versions gate a load, and **either mismatching invalidates the file
//! wholesale** (an empty store, never a partial one):
//!
//! * `format_version` — the container layout above, owned by this crate.
//! * `app_version` — the codec version of the layer that wrote the
//!   payloads, passed to [`DiskStore::open`]. The pipeline bumps it
//!   whenever any artifact encoding changes, so stale bytes are never
//!   half-decoded.
//!
//! Invalidation is deliberate and cheap: artifacts are caches of
//! deterministic computations, so the safe response to *any* doubt about
//! the bytes is to recompute cold.
//!
//! # Corruption tolerance
//!
//! [`load_bytes`] never panics on hostile input (the `isl-fuzz persist`
//! mode bit-flips real files through it). Each record is independently
//! checksummed and framed by a sync marker: a corrupt record is skipped,
//! counted in [`LoadReport::skipped_corrupt`], and decoding resynchronises
//! at the next marker — one flipped byte costs one record, not the file.
//! Payloads that pass the checksum but later fail their codec are handed
//! back via [`DiskStore::discard_corrupt`], which counts them the same way.
//!
//! # Publication and eviction
//!
//! A [`DiskStore`] holds each record once, as the frame it has on disk:
//! magic, body length, body and checksum. A record is framed and
//! checksummed once — when it is inserted or loaded (a loaded record keeps
//! the frame it was read in) — and again only when a
//! [`DiskStore::lookup`] hit refreshes its LRU stamp, which lives in the
//! body. [`DiskStore::flush`] therefore encodes nothing: it streams the
//! header and the held frames, in `(kind, key)` order, through a buffered
//! writer into a sibling temp file and atomically `rename`s it into place.
//! Readers observe the old file or the new one, never a torn write, and
//! the published file is byte for byte what [`save_bytes`] writes for the
//! same records. Within one version, an optional LRU byte budget
//! ([`DiskStore::with_byte_budget`]) evicts the least-recently-stamped
//! records at flush time until the file fits (the rule [`evict_lru`]
//! applies to a record list); stamps advance on insertion and on every
//! lookup hit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod store;

pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use store::{
    evict_lru, fnv1a, load_bytes, save_bytes, DiskStats, DiskStore, FlushReport, LoadReport,
    RawRecord, FILE_MAGIC, FORMAT_VERSION, RECORD_OVERHEAD, REC_MAGIC,
};
