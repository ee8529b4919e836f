//! The record file format and the mutable [`DiskStore`] over it.
//!
//! See the [crate-level documentation](crate) for the byte-level layout,
//! the versioning contract and the eviction policy. This module owns the
//! mechanics: checksummed framing, resynchronising corrupt-tolerant
//! decode, atomic publication and the LRU byte budget.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File magic: the first four bytes of every store file.
pub const FILE_MAGIC: [u8; 4] = *b"ISLP";

/// Container format version. Bumping it (a layout change in *this* module)
/// invalidates every existing store file wholesale.
pub const FORMAT_VERSION: u32 = 1;

/// Per-record sync marker. Decode resynchronises on this word after a
/// corrupt record, so one flipped byte costs one record, not the file.
pub const REC_MAGIC: [u8; 4] = *b"\xC0\xDE\x0D\x0A";

/// Fixed per-record framing overhead: magic + body length + checksum.
pub const RECORD_OVERHEAD: usize = 4 + 4 + 8;

const MAX_BODY: usize = 1 << 30;

/// Bytes of the file header: magic, format version, app version.
const HEADER_LEN: usize = 16;

/// Bytes of the body before the key: kind, stamp, key length.
const BODY_HEAD: usize = 1 + 8 + 4;

/// Offset of the body inside a frame (after magic and body length).
const BODY_AT: usize = 8;

/// FNV-1a over `bytes` — the per-record checksum. Stable, dependency-free
/// and byte-order-independent; corruption detection, not cryptography.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// One stored record: an opaque `(kind, key) → value` binding plus the
/// logical access stamp the LRU byte budget orders evictions by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Artifact-kind discriminant (the codec layered on top assigns them).
    pub kind: u8,
    /// Logical access stamp: larger = more recently used.
    pub stamp: u64,
    /// Encoded content key.
    pub key: Vec<u8>,
    /// Encoded artifact payload.
    pub value: Vec<u8>,
}

impl RawRecord {
    /// Bytes this record occupies on disk, framing included.
    pub fn disk_size(&self) -> usize {
        RECORD_OVERHEAD + BODY_HEAD + self.key.len() + self.value.len()
    }
}

/// What one [`load_bytes`]/[`DiskStore::open`] observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records that decoded cleanly (duplicate keys resolved last-wins).
    pub records: Vec<RawRecord>,
    /// Corrupt records skipped (bad magic runs, bad lengths, checksum
    /// mismatches). Never a panic: corruption degrades to a cold cache.
    pub skipped_corrupt: usize,
    /// Whether a version mismatch invalidated the file wholesale.
    pub invalidated: bool,
    /// Size of the file the records came from, bytes.
    pub bytes_on_disk: u64,
}

fn header(app_version: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&FILE_MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..].copy_from_slice(&app_version.to_le_bytes());
    h
}

/// Append one record to `out` as it lies on disk: magic, body length, body
/// and the FNV-1a checksum of the body. The one framing function of the
/// crate — [`save_bytes`] and [`DiskStore`] both frame through it.
fn frame_into(out: &mut Vec<u8>, kind: u8, stamp: u64, key: &[u8], value: &[u8]) {
    let body_len = BODY_HEAD + key.len() + value.len();
    out.reserve(RECORD_OVERHEAD + body_len);
    out.extend_from_slice(&REC_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_at = out.len();
    out.push(kind);
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let sum = fnv1a(&out[body_at..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encode a whole store file: header then every record, framed and
/// checksummed. The inverse of [`load_bytes`].
pub fn save_bytes(app_version: u64, records: &[RawRecord]) -> Vec<u8> {
    let total: usize = records.iter().map(RawRecord::disk_size).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + total);
    out.extend_from_slice(&header(app_version));
    for rec in records {
        frame_into(&mut out, rec.kind, rec.stamp, &rec.key, &rec.value);
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Scan forward from `from` for the next [`REC_MAGIC`], the resync point
/// after a corrupt record.
fn next_magic(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(REC_MAGIC.len() - 1)).find(|&i| bytes[i..i + 4] == REC_MAGIC)
}

/// One record that passed its framing and checksum checks, borrowed from
/// the scanned image.
struct Scanned<'a> {
    kind: u8,
    stamp: u64,
    key: &'a [u8],
    value: &'a [u8],
    /// The whole record as it lies in the image, magic to checksum.
    frame: &'a [u8],
}

/// Walk a store file image, handing every intact record to `visit` in file
/// order (duplicates included; the caller resolves them last-wins).
/// Returns `(corrupt records skipped, invalidated)`. **Never panics on
/// hostile bytes** — the persist fuzz mode bit-flips real files through
/// here. A header whose magic or version does not match `app_version`
/// visits nothing and reports the file invalidated.
fn scan<'a>(
    bytes: &'a [u8],
    app_version: u64,
    mut visit: impl FnMut(Scanned<'a>),
) -> (usize, bool) {
    if bytes.len() < HEADER_LEN
        || bytes[..4] != FILE_MAGIC
        || read_u32(bytes, 4) != Some(FORMAT_VERSION)
        || read_u64(bytes, 8) != Some(app_version)
    {
        return (0, true);
    }
    let mut skipped = 0;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_OVERHEAD || bytes[pos..pos + 4] != REC_MAGIC {
            // Not a record start: corruption (or trailing garbage). Count
            // one skip for the whole run and resync at the next marker.
            skipped += 1;
            match next_magic(bytes, pos + 1) {
                Some(next) => {
                    pos = next;
                    continue;
                }
                None => break,
            }
        }
        let body_len = read_u32(bytes, pos + 4).unwrap_or(u32::MAX) as usize;
        let body_at = pos + BODY_AT;
        let ok = body_len <= MAX_BODY
            && body_at + body_len + 8 <= bytes.len()
            && read_u64(bytes, body_at + body_len)
                == Some(fnv1a(&bytes[body_at..body_at + body_len]));
        if !ok {
            skipped += 1;
            match next_magic(bytes, pos + 1) {
                Some(next) => pos = next,
                None => break,
            }
            continue;
        }
        let frame = &bytes[pos..body_at + body_len + 8];
        let body = &bytes[body_at..body_at + body_len];
        pos = body_at + body_len + 8;
        // Body layout: kind u8, stamp u64, key_len u32, key, value. The
        // checksum passed, so an inconsistent key_len still means a codec
        // mismatch — treat it as corruption, not a panic.
        if body.len() < BODY_HEAD {
            skipped += 1;
            continue;
        }
        let stamp = read_u64(body, 1).expect("body head checked");
        let key_len = read_u32(body, 9).expect("body head checked") as usize;
        if BODY_HEAD + key_len > body.len() {
            skipped += 1;
            continue;
        }
        visit(Scanned {
            kind: body[0],
            stamp,
            key: &body[BODY_HEAD..BODY_HEAD + key_len],
            value: &body[BODY_HEAD + key_len..],
            frame,
        });
    }
    (skipped, false)
}

/// Decode a store file image. **Never panics on hostile input** — the
/// persist fuzz mode bit-flips real files through here. Corrupt records
/// are skipped and counted; a header whose magic or version does not match
/// `app_version` yields an empty, `invalidated` report (the wholesale
/// invalidation contract).
pub fn load_bytes(bytes: &[u8], app_version: u64) -> LoadReport {
    let mut records: Vec<RawRecord> = Vec::new();
    let mut by_key: HashMap<(u8, &[u8]), usize> = HashMap::new();
    let (skipped_corrupt, invalidated) = scan(bytes, app_version, |rec| {
        let raw = RawRecord {
            kind: rec.kind,
            stamp: rec.stamp,
            key: rec.key.to_vec(),
            value: rec.value.to_vec(),
        };
        match by_key.entry((rec.kind, rec.key)) {
            std::collections::hash_map::Entry::Occupied(e) => records[*e.get()] = raw,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(records.len());
                records.push(raw);
            }
        }
    });
    LoadReport {
        records,
        skipped_corrupt,
        invalidated,
        bytes_on_disk: bytes.len() as u64,
    }
}

/// The LRU rule of the byte budget: given every record's `(stamp, disk
/// size)` in file order, mark the least-recently-stamped records (ties
/// broken by file order) for eviction until the encoded file, header
/// included, fits `byte_budget`. Shared by [`evict_lru`] and
/// [`DiskStore::flush`], so both evict the same records.
fn lru_victims(entries: &[(u64, usize)], byte_budget: u64) -> Vec<bool> {
    let mut total = HEADER_LEN as u64 + entries.iter().map(|&(_, size)| size as u64).sum::<u64>();
    let mut victims = vec![false; entries.len()];
    if total <= byte_budget {
        return victims;
    }
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| entries[i].0);
    for i in order {
        if total <= byte_budget {
            break;
        }
        total -= entries[i].1 as u64;
        victims[i] = true;
    }
    victims
}

/// Drop least-recently-stamped records until the encoded file fits
/// `byte_budget` (header included), keeping the survivors in their order.
/// Returns how many records were evicted. A budget smaller than the header
/// alone evicts everything.
pub fn evict_lru(records: &mut Vec<RawRecord>, byte_budget: u64) -> usize {
    let entries: Vec<(u64, usize)> = records.iter().map(|r| (r.stamp, r.disk_size())).collect();
    let mut victims = lru_victims(&entries, byte_budget).into_iter();
    let before = records.len();
    records.retain(|_| !victims.next().expect("one verdict per record"));
    before - records.len()
}

/// Counters of one [`DiskStore`] — the disk tier's side of the pipeline's
/// hit/miss evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups served from a loaded record.
    pub hits: u64,
    /// Lookups that found no record (the artifact must be built cold).
    pub misses: u64,
    /// Corrupt records skipped: framing/checksum failures at load plus
    /// records whose payload later failed to decode.
    pub skipped_corrupt: u64,
    /// Size of the store file at the last load or flush, bytes.
    pub bytes_on_disk: u64,
    /// Records currently held.
    pub records: u64,
    /// Records evicted by the LRU byte budget across all flushes.
    pub evicted: u64,
    /// Whether the on-disk file was invalidated wholesale by a version
    /// mismatch at open.
    pub invalidated: bool,
}

/// What one [`DiskStore::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Records written.
    pub records: usize,
    /// Bytes written.
    pub bytes: u64,
    /// Records evicted by the byte budget before writing.
    pub evicted: usize,
    /// Whether anything was written at all (`false` = store was clean).
    pub wrote: bool,
}

/// The access stamp inside a held frame.
fn frame_stamp(frame: &[u8]) -> u64 {
    read_u64(frame, BODY_AT + 1).expect("held frames are well formed")
}

/// The value bytes inside a held frame.
fn frame_value(frame: &[u8]) -> &[u8] {
    let key_len = read_u32(frame, BODY_AT + 9).expect("held frames are well formed") as usize;
    &frame[BODY_AT + BODY_HEAD + key_len..frame.len() - 8]
}

/// Give a held frame a new access stamp: rewrite the stamp and the
/// checksum in place, leaving the frame what [`frame_into`] would write.
fn restamp(frame: &mut [u8], stamp: u64) {
    let end = frame.len() - 8;
    frame[BODY_AT + 1..BODY_AT + 9].copy_from_slice(&stamp.to_le_bytes());
    let sum = fnv1a(&frame[BODY_AT..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
}

#[derive(Debug, Default)]
struct Inner {
    /// Every record once, as its on-disk frame, in `(kind, key)` order —
    /// the order a flush writes them in.
    frames: BTreeMap<(u8, Vec<u8>), Vec<u8>>,
    clock: u64,
    dirty: bool,
    evicted: u64,
}

/// A mutable, thread-safe `(kind, key) → value` store over one record
/// file: load at [`open`](DiskStore::open), mutate in memory, publish
/// atomically at [`flush`](DiskStore::flush).
///
/// The store is byte-oriented — it knows nothing about the artifacts
/// themselves. The pipeline layers codecs on top and owns the `kind`
/// discriminants and the `app_version` (its codec version).
#[derive(Debug)]
pub struct DiskStore {
    path: PathBuf,
    app_version: u64,
    byte_budget: Option<u64>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped: AtomicU64,
    bytes_on_disk: AtomicU64,
    invalidated: bool,
}

impl DiskStore {
    /// Open (or create) the store at `path` under codec version
    /// `app_version`, loading whatever survives the corruption checks. A
    /// missing file is an empty store; a version-mismatched file is an
    /// empty store with [`DiskStats::invalidated`] set; corrupt records
    /// are skipped and counted. None of these are errors — only real I/O
    /// failures (permissions, unreadable directory) are.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>, app_version: u64) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let mut inner = Inner::default();
        // A loaded record keeps the frame it was read in: it passed its
        // checksum, so it is already what `frame_into` would write.
        let (skipped, invalidated) = match &bytes {
            Some(bytes) => scan(bytes, app_version, |rec| {
                inner
                    .frames
                    .insert((rec.kind, rec.key.to_vec()), rec.frame.to_vec());
            }),
            None => (0, false),
        };
        inner.clock = inner
            .frames
            .values()
            .map(|frame| frame_stamp(frame).saturating_add(1))
            .max()
            .unwrap_or(0);
        Ok(DiskStore {
            path,
            app_version,
            byte_budget: None,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: AtomicU64::new(skipped as u64),
            bytes_on_disk: AtomicU64::new(bytes.map_or(0, |b| b.len() as u64)),
            invalidated,
        })
    }

    /// Cap the encoded file size; [`flush`](DiskStore::flush) evicts
    /// least-recently-used records down to the budget before writing.
    pub fn with_byte_budget(mut self, byte_budget: u64) -> Self {
        self.byte_budget = Some(byte_budget);
        self
    }

    /// The file this store publishes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The codec version the store was opened under.
    pub fn app_version(&self) -> u64 {
        self.app_version
    }

    /// Look `(kind, key)` up, refreshing its LRU stamp on a hit. Counts a
    /// hit or a miss either way.
    pub fn lookup(&self, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        let mut guard = self.inner.lock().expect("disk store");
        let inner = &mut *guard;
        match inner.frames.get_mut(&(kind, key.to_vec())) {
            Some(frame) => {
                restamp(frame, inner.clock);
                inner.clock += 1;
                inner.dirty = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(frame_value(frame).to_vec())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Bind `(kind, key)` to `value` with a fresh stamp (replacing any
    /// previous binding) and mark the store dirty.
    pub fn insert(&self, kind: u8, key: Vec<u8>, value: Vec<u8>) {
        let mut inner = self.inner.lock().expect("disk store");
        let mut frame = Vec::new();
        frame_into(&mut frame, kind, inner.clock, &key, &value);
        inner.clock += 1;
        inner.frames.insert((kind, key), frame);
        inner.dirty = true;
    }

    /// Drop a record whose payload failed to decode, counting it as
    /// corrupt: the caller falls back to a cold build and the bad bytes
    /// are not republished at the next flush.
    pub fn discard_corrupt(&self, kind: u8, key: &[u8]) {
        let mut inner = self.inner.lock().expect("disk store");
        if inner.frames.remove(&(kind, key.to_vec())).is_some() {
            inner.dirty = true;
        }
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `(kind, key)` is bound, without touching stamps or
    /// counters — a neutral probe for write-if-absent sync paths.
    pub fn contains(&self, kind: u8, key: &[u8]) -> bool {
        self.inner
            .lock()
            .expect("disk store")
            .frames
            .contains_key(&(kind, key.to_vec()))
    }

    /// Every `(key, value)` of `kind`, sorted by key, without touching
    /// stamps or counters — the persistence layer's warm-open enumeration
    /// (loaded records are neither hits nor misses until requested).
    pub fn entries_of_kind(&self, kind: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inner = self.inner.lock().expect("disk store");
        inner
            .frames
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|((_, key), frame)| (key.clone(), frame_value(frame).to_vec()))
            .collect()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("disk store").frames.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an in-memory mutation has not been flushed yet.
    pub fn is_dirty(&self) -> bool {
        self.inner.lock().expect("disk store").dirty
    }

    /// Publish the current state atomically: apply the LRU byte budget,
    /// stream the header and every held frame, in `(kind, key)` order,
    /// into a sibling temp file and `rename` it over `path`. The file is
    /// exactly what [`save_bytes`] writes for the held records. A clean
    /// store writes nothing. Readers never observe a partial file — they
    /// see the old store or the new one.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the temp write or the rename; the previous file
    /// is untouched on failure.
    pub fn flush(&self) -> io::Result<FlushReport> {
        let mut inner = self.inner.lock().expect("disk store");
        if !inner.dirty {
            return Ok(FlushReport::default());
        }
        let evicted = match self.byte_budget {
            Some(budget) => {
                let entries: Vec<(u64, usize)> = inner
                    .frames
                    .values()
                    .map(|frame| (frame_stamp(frame), frame.len()))
                    .collect();
                let mut victims = lru_victims(&entries, budget).into_iter();
                let before = inner.frames.len();
                inner
                    .frames
                    .retain(|_, _| !victims.next().expect("one verdict per record"));
                before - inner.frames.len()
            }
            None => 0,
        };
        inner.evicted += evicted as u64;
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        let published = write_file(&tmp, self.app_version, inner.frames.values())
            .and_then(|bytes| std::fs::rename(&tmp, &self.path).map(|()| bytes));
        if published.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        let bytes = published?;
        inner.dirty = false;
        self.bytes_on_disk.store(bytes, Ordering::Relaxed);
        Ok(FlushReport {
            records: inner.frames.len(),
            bytes,
            evicted,
            wrote: true,
        })
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> DiskStats {
        let inner = self.inner.lock().expect("disk store");
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            skipped_corrupt: self.skipped.load(Ordering::Relaxed),
            bytes_on_disk: self.bytes_on_disk.load(Ordering::Relaxed),
            records: inner.frames.len() as u64,
            evicted: inner.evicted,
            invalidated: self.invalidated,
        }
    }
}

/// Stream a store file — header, then `frames` as they are — through a
/// buffered writer into `path`. Returns the bytes written.
fn write_file<'a>(
    path: &Path,
    app_version: u64,
    frames: impl Iterator<Item = &'a Vec<u8>>,
) -> io::Result<u64> {
    let mut out = BufWriter::with_capacity(1 << 16, File::create(path)?);
    out.write_all(&header(app_version))?;
    let mut bytes = HEADER_LEN as u64;
    for frame in frames {
        out.write_all(frame)?;
        bytes += frame.len() as u64;
    }
    out.flush()?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: u8, stamp: u64, key: &[u8], value: &[u8]) -> RawRecord {
        RawRecord {
            kind,
            stamp,
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn file_round_trip() {
        let records = vec![
            rec(1, 0, b"alpha", b"payload-a"),
            rec(2, 1, b"beta", &[0u8; 100]),
            rec(1, 2, b"", b""),
        ];
        let bytes = save_bytes(7, &records);
        let report = load_bytes(&bytes, 7);
        assert_eq!(report.records, records);
        assert_eq!(report.skipped_corrupt, 0);
        assert!(!report.invalidated);
        assert_eq!(report.bytes_on_disk, bytes.len() as u64);
    }

    #[test]
    fn version_bump_invalidates_wholesale() {
        let bytes = save_bytes(7, &[rec(1, 0, b"k", b"v")]);
        let report = load_bytes(&bytes, 8);
        assert!(report.invalidated);
        assert!(report.records.is_empty());
        assert_eq!(report.skipped_corrupt, 0);
    }

    #[test]
    fn every_single_byte_flip_is_survivable() {
        let records = vec![
            rec(1, 0, b"alpha", b"payload-a"),
            rec(2, 1, b"beta", b"payload-b"),
            rec(3, 2, b"gamma", b"payload-c"),
        ];
        let clean = save_bytes(3, &records);
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x41;
            let report = load_bytes(&bytes, 3); // must not panic
            if report.invalidated {
                assert!(i < 16, "only a header flip may invalidate (flip at {i})");
                continue;
            }
            // Whatever survives must be one of the original records.
            for r in &report.records {
                assert!(
                    records.contains(r) || report.skipped_corrupt > 0,
                    "flip at {i} fabricated a record"
                );
            }
            assert!(
                report.records.len() + report.skipped_corrupt >= records.len() - 1,
                "flip at {i} lost more than one record silently"
            );
        }
    }

    #[test]
    fn corrupt_middle_record_is_skipped_and_counted() {
        let records = vec![
            rec(1, 0, b"first", b"aaaa"),
            rec(1, 1, b"second", b"bbbb"),
            rec(1, 2, b"third", b"cccc"),
        ];
        let mut bytes = save_bytes(1, &records);
        // Flip one payload byte of the middle record (its checksum breaks).
        let mid = 16 + records[0].disk_size() + RECORD_OVERHEAD + 14;
        bytes[mid] ^= 0xFF;
        let report = load_bytes(&bytes, 1);
        assert_eq!(report.skipped_corrupt, 1);
        assert_eq!(report.records.len(), 2);
        assert!(report.records.contains(&records[0]));
        assert!(report.records.contains(&records[2]));
    }

    #[test]
    fn truncated_file_keeps_prefix() {
        let records = vec![rec(1, 0, b"keep", b"x"), rec(1, 1, b"lost", b"y")];
        let bytes = save_bytes(1, &records);
        let cut = &bytes[..bytes.len() - 5];
        let report = load_bytes(cut, 1);
        assert_eq!(report.records, vec![records[0].clone()]);
        assert_eq!(report.skipped_corrupt, 1);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let records = vec![rec(1, 0, b"k", b"old"), rec(1, 5, b"k", b"new")];
        let bytes = save_bytes(1, &records);
        let report = load_bytes(&bytes, 1);
        assert_eq!(report.records, vec![rec(1, 5, b"k", b"new")]);
    }

    #[test]
    fn lru_eviction_drops_oldest_stamps_first() {
        let mut records = vec![
            rec(1, 10, b"newest", &[0u8; 64]),
            rec(1, 1, b"oldest", &[0u8; 64]),
            rec(1, 5, b"middle", &[0u8; 64]),
        ];
        let full: u64 = 16 + records.iter().map(|r| r.disk_size() as u64).sum::<u64>();
        let one = records[0].disk_size() as u64;
        let evicted = evict_lru(&mut records, full - one);
        assert_eq!(evicted, 1);
        // Survivors keep their order.
        let keys: Vec<&[u8]> = records.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, [&b"newest"[..], &b"middle"[..]]);
        let evicted = evict_lru(&mut records, 0);
        assert_eq!(evicted, 2);
        assert!(records.is_empty());
    }

    #[test]
    fn disk_store_end_to_end() {
        let dir = std::env::temp_dir().join(format!("isl-persist-test-{}", std::process::id()));
        let path = dir.join("store.islstore");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);

        let store = DiskStore::open(&path, 9).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.lookup(1, b"k"), None);
        store.insert(1, b"k".to_vec(), b"v".to_vec());
        let flushed = store.flush().unwrap();
        assert!(flushed.wrote);
        assert_eq!(flushed.records, 1);
        // Clean flush is a no-op.
        assert!(!store.flush().unwrap().wrote);

        let reopened = DiskStore::open(&path, 9).unwrap();
        assert_eq!(reopened.lookup(1, b"k"), Some(b"v".to_vec()));
        let stats = reopened.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert!(stats.bytes_on_disk > 0);

        // Version bump: wholesale invalidation, not an error.
        let bumped = DiskStore::open(&path, 10).unwrap();
        assert!(bumped.is_empty());
        assert!(bumped.stats().invalidated);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The records a store holds, in `(kind, key)` order, read back from
    /// its frames.
    fn held(store: &DiskStore) -> Vec<RawRecord> {
        let inner = store.inner.lock().unwrap();
        let mut image = header(store.app_version).to_vec();
        for frame in inner.frames.values() {
            image.extend_from_slice(frame);
        }
        let report = load_bytes(&image, store.app_version);
        assert_eq!(report.skipped_corrupt, 0, "a held frame fails its checksum");
        report.records
    }

    /// An independent model of the store's bookkeeping: every binding with
    /// the stamp the documented rules give it.
    #[derive(Default)]
    struct Model {
        records: BTreeMap<(u8, Vec<u8>), (u64, Vec<u8>)>,
        clock: u64,
    }

    impl Model {
        fn insert(&mut self, kind: u8, key: &[u8], value: &[u8]) {
            self.records
                .insert((kind, key.to_vec()), (self.clock, value.to_vec()));
            self.clock += 1;
        }

        fn touch(&mut self, kind: u8, key: &[u8]) {
            self.records.get_mut(&(kind, key.to_vec())).unwrap().0 = self.clock;
            self.clock += 1;
        }

        fn raw(&self) -> Vec<RawRecord> {
            self.records
                .iter()
                .map(|((kind, key), (stamp, value))| rec(*kind, *stamp, key, value))
                .collect()
        }

        fn evict(&mut self, budget: u64) -> usize {
            let mut raw = self.raw();
            let evicted = evict_lru(&mut raw, budget);
            self.records = raw
                .into_iter()
                .map(|r| ((r.kind, r.key), (r.stamp, r.value)))
                .collect();
            evicted
        }
    }

    #[test]
    fn flush_streams_exactly_what_save_bytes_writes() {
        let dir = std::env::temp_dir().join(format!("isl-persist-flush-{}", std::process::id()));
        let path = dir.join("store.islstore");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);
        let check = |store: &DiskStore, model: &Model| {
            let file = std::fs::read(&path).unwrap();
            assert_eq!(file, save_bytes(5, &model.raw()));
            assert_eq!(held(store), model.raw());
            // Reopening the published file holds the same records.
            assert_eq!(held(&DiskStore::open(&path, 5).unwrap()), model.raw());
        };

        let store = DiskStore::open(&path, 5).unwrap();
        let mut model = Model::default();
        for (kind, key, value) in [
            (2, &b"b"[..], &b"vb"[..]),
            (1, b"z", b"vz"),
            (1, b"a", b"va"),
            (3, b"k", &[7u8; 100][..]),
        ] {
            store.insert(kind, key.to_vec(), value.to_vec());
            model.insert(kind, key, value);
        }
        assert_eq!(store.flush().unwrap().records, 4);
        check(&store, &model);

        // A replacing insert.
        store.insert(1, b"a".to_vec(), b"va2".to_vec());
        model.insert(1, b"a", b"va2");
        store.flush().unwrap();
        check(&store, &model);

        // A lookup that refreshes a stamp.
        assert_eq!(store.lookup(2, b"b"), Some(b"vb".to_vec()));
        model.touch(2, b"b");
        store.flush().unwrap();
        check(&store, &model);

        // A discarded record.
        store.discard_corrupt(1, b"z");
        model.records.remove(&(1, b"z".to_vec()));
        store.flush().unwrap();
        check(&store, &model);
        drop(store);

        // An LRU eviction under a byte budget, on the reopened store.
        let full = std::fs::metadata(&path).unwrap().len();
        let store = DiskStore::open(&path, 5).unwrap().with_byte_budget(full);
        store.insert(4, b"new".to_vec(), b"vn".to_vec());
        model.insert(4, b"new", b"vn");
        let flushed = store.flush().unwrap();
        assert!(flushed.evicted > 0);
        assert_eq!(flushed.evicted, model.evict(full));
        assert_eq!(flushed.records, model.records.len());
        assert_eq!(flushed.bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(store.stats().evicted, flushed.evicted as u64);
        check(&store, &model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_corrupt_counts_and_removes() {
        let dir = std::env::temp_dir().join(format!("isl-persist-disc-{}", std::process::id()));
        let path = dir.join("store.islstore");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);
        let store = DiskStore::open(&path, 1).unwrap();
        store.insert(4, b"bad".to_vec(), b"undecodable".to_vec());
        store.discard_corrupt(4, b"bad");
        assert_eq!(store.lookup(4, b"bad"), None);
        assert_eq!(store.stats().skipped_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
