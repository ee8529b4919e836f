//! The disk tier of the [`ArtifactStore`](crate::ArtifactStore): artifact
//! codecs over the generic [`isl_persist`] record file.
//!
//! `isl-persist` deliberately knows nothing about pipeline types — it
//! stores `(kind, key) → bytes`. This module owns the other half of the
//! contract: a stable binary codec per persisted artifact kind
//! (calibrations, synthesis reports, golden-vector sets, architecture
//! certificates, reference-run pairs and format-search outcomes, each
//! keyed by the pattern fingerprint plus every config bit that can change
//! the value), and the [`ARTIFACT_CODEC_VERSION`] that invalidates all
//! persisted bytes wholesale whenever any encoding changes.
//!
//! Every codec is exact: `f64`s travel by bit pattern, so a disk-served
//! artifact is bit-identical to the cold recompute it replaced
//! (property-tested in `tests/tests/persist_props.rs`). Payloads that
//! fail to decode — truncation survived the checksum odds, or a foreign
//! tool wrote the record — are discarded and counted as corrupt; the
//! caller falls back to a cold build. Never a panic.

use std::path::Path;

use isl_dse::{Calibration, ConeFacts};
use isl_estimate::{Architecture, AreaEstimator};
use isl_fpga::{FixedFormat, SynthCache, SynthKey, SynthesisReport};
use isl_ir::Window;
use isl_persist::{ByteReader, ByteWriter, DecodeError, DiskStore};
use isl_sim::{Frame, FrameSet};
use isl_vhdl::VectorFile;

use crate::error::FlowError;
use crate::session::{ArchitectureCertificate, ErrorBudget, FormatProbe, FormatSearchOutcome};
use crate::store::{CalibrationKey, RefKey, RunKey, SearchKey};

/// Version of the artifact codecs in this module, fed to
/// [`isl_persist::DiskStore::open`] as the `app_version`. **Bump on any
/// encoding change**, and when a stored field changes meaning — stale
/// files are then invalidated wholesale instead of half-decoded or served
/// stale. Version 2: `ArchitectureCertificate::quantized_elements` counts
/// the elements of one certified run, not two engine pairs.
pub const ARTIFACT_CODEC_VERSION: u64 = 2;

const KIND_CALIBRATION: u8 = 1;
const KIND_VECTORS: u8 = 2;
const KIND_CERTIFICATE: u8 = 3;
const KIND_REFERENCES: u8 = 4;
const KIND_SEARCH: u8 = 5;
const KIND_SYNTHESIS: u8 = 6;

// ---------------------------------------------------------------------------
// Shared field codecs.
// ---------------------------------------------------------------------------

fn put_window(w: &mut ByteWriter, win: Window) {
    w.put_u32(win.w);
    w.put_u32(win.h);
    w.put_u32(win.d);
}

fn get_window(r: &mut ByteReader<'_>) -> Result<Window, DecodeError> {
    let (w, h, d) = (r.u32()?, r.u32()?, r.u32()?);
    if w == 0 || h == 0 || d == 0 {
        return Err(DecodeError(format!("degenerate window {w}x{h}x{d}")));
    }
    Ok(Window { w, h, d })
}

fn put_format(w: &mut ByteWriter, f: FixedFormat) {
    w.put_u32(f.width);
    w.put_u32(f.frac);
}

fn get_format(r: &mut ByteReader<'_>) -> Result<FixedFormat, DecodeError> {
    let (width, frac) = (r.u32()?, r.u32()?);
    if width == 0 || width > 64 || frac >= width {
        return Err(DecodeError(format!("invalid format Q{}.{}", width, frac)));
    }
    Ok(FixedFormat { width, frac })
}

type OptionBits = (FixedFormat, bool, bool, bool, bool);

fn put_options(w: &mut ByteWriter, o: &OptionBits) {
    put_format(w, o.0);
    w.put_bool(o.1);
    w.put_bool(o.2);
    w.put_bool(o.3);
    w.put_bool(o.4);
}

fn put_u32_vec(w: &mut ByteWriter, v: &[u32]) {
    w.put_u32(v.len() as u32);
    for &x in v {
        w.put_u32(x);
    }
}

// ---------------------------------------------------------------------------
// Key codecs. A key encoding is part of the record identity: changing one
// requires an ARTIFACT_CODEC_VERSION bump like any payload change.
// ---------------------------------------------------------------------------

fn calibration_key(key: &CalibrationKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(key.pattern);
    w.put_str(&key.device);
    put_options(&mut w, &key.options);
    w.put_u32(key.iterations);
    put_u32_vec(&mut w, &key.sides);
    put_u32_vec(&mut w, &key.depths);
    w.into_inner()
}

fn run_key(key: &RunKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(key.pattern);
    w.put_u64(key.init);
    put_format(&mut w, key.format);
    w.put_u8(key.border.0);
    w.put_u64(key.border.1);
    w.put_u32(key.iterations);
    put_window(&mut w, key.window);
    w.put_u32(key.depth);
    w.into_inner()
}

fn cert_key(key: &RunKey, cores: u32) -> Vec<u8> {
    let mut bytes = run_key(key);
    bytes.extend_from_slice(&cores.to_le_bytes());
    bytes
}

fn ref_key(key: &RefKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(key.pattern);
    w.put_u64(key.init);
    w.put_u8(key.border.0);
    w.put_u64(key.border.1);
    w.put_u32(key.iterations);
    put_window(&mut w, key.window);
    w.put_u32(key.depth);
    w.into_inner()
}

fn search_key(key: &SearchKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(&run_key(&key.run));
    w.put_u32(key.cores);
    w.put_str(&key.device);
    put_options(&mut w, &key.options);
    w.put_u64(key.budget.0);
    w.put_u64(key.budget.1);
    w.put_u32(key.budget.2);
    w.into_inner()
}

fn synth_key(key: &SynthKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(key.pattern);
    w.put_str(&key.device);
    put_format(&mut w, key.format);
    w.put_bool(key.options.0);
    w.put_bool(key.options.1);
    w.put_bool(key.options.2);
    w.put_bool(key.options.3);
    put_window(&mut w, key.window);
    w.put_u32(key.depth);
    w.put_u32(key.cones);
    w.into_inner()
}

fn decode_synth_key(r: &mut ByteReader<'_>) -> Result<SynthKey, DecodeError> {
    Ok(SynthKey {
        pattern: r.u64()?,
        device: r.str()?.to_string(),
        format: get_format(r)?,
        options: (r.bool()?, r.bool()?, r.bool()?, r.bool()?),
        window: get_window(r)?,
        depth: r.u32()?,
        cones: r.u32()?,
    })
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

fn encode_calibration(c: &Calibration) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(c.iterations());
    w.put_usize(c.syntheses());
    let estimators = c.estimators();
    w.put_u32(estimators.len() as u32);
    for (depth, est) in estimators {
        let (alpha, size_reg, anchor_area, anchor_registers, used) = est.parts();
        w.put_u32(depth);
        w.put_f64(alpha);
        w.put_f64(size_reg);
        w.put_f64(anchor_area);
        w.put_u64(anchor_registers);
        w.put_usize(used);
    }
    let facts = c.all_facts();
    w.put_u32(facts.len() as u32);
    for ((side, depth), f) in facts {
        w.put_u32(side);
        w.put_u32(depth);
        w.put_u64(f.registers);
        w.put_u32(f.latency);
        w.put_f64(f.est_luts);
    }
    w.into_inner()
}

fn decode_calibration(bytes: &[u8]) -> Result<Calibration, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let iterations = r.u32()?;
    let syntheses = r.usize()?;
    let n_est = r.u32()? as usize;
    let mut estimators = Vec::with_capacity(n_est.min(1024));
    for _ in 0..n_est {
        let depth = r.u32()?;
        let alpha = r.f64()?;
        let size_reg = r.f64()?;
        let anchor_area = r.f64()?;
        let anchor_registers = r.u64()?;
        let used = r.usize()?;
        estimators.push((
            depth,
            AreaEstimator::from_parts(alpha, size_reg, anchor_area, anchor_registers, used),
        ));
    }
    let n_facts = r.u32()? as usize;
    let mut facts = Vec::with_capacity(n_facts.min(4096));
    for _ in 0..n_facts {
        let side = r.u32()?;
        let depth = r.u32()?;
        let f = ConeFacts {
            registers: r.u64()?,
            latency: r.u32()?,
            est_luts: r.f64()?,
        };
        facts.push(((side, depth), f));
    }
    r.expect_end()?;
    Ok(Calibration::from_parts(iterations, syntheses, estimators, facts))
}

/// Golden-vector sets reuse the exchange text format — the exact
/// round-trip `tests` already pin (`VectorFile::parse(to_text()) == self`).
fn encode_vectors(files: &[VectorFile]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(files.len() as u32);
    for f in files {
        w.put_str(&f.to_text());
    }
    w.into_inner()
}

fn decode_vectors(bytes: &[u8]) -> Result<Vec<VectorFile>, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let n = r.u32()? as usize;
    let mut files = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let text = r.str()?;
        files.push(
            VectorFile::parse(text).map_err(|e| DecodeError(format!("vector file: {e}")))?,
        );
    }
    r.expect_end()?;
    Ok(files)
}

fn encode_certificate(c: &ArchitectureCertificate) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_window(&mut w, c.arch.window);
    w.put_u32(c.arch.depth);
    w.put_u32(c.arch.cores);
    w.put_u32(c.iterations);
    put_format(&mut w, c.format);
    w.put_usize(c.quantized_elements);
    w.put_bytes(&encode_vectors(&c.vector_files));
    w.put_usize(c.vector_records);
    w.put_usize(c.vector_words);
    w.put_f64(c.max_fixed_error);
    w.put_f64(c.rms_fixed_error);
    w.put_f64(c.max_quant_error);
    w.put_f64(c.rms_quant_error);
    w.into_inner()
}

fn decode_certificate_fields(
    r: &mut ByteReader<'_>,
) -> Result<ArchitectureCertificate, DecodeError> {
    let window = get_window(r)?;
    let depth = r.u32()?;
    let cores = r.u32()?;
    let arch = Architecture::new(window, depth, cores);
    let iterations = r.u32()?;
    let format = get_format(r)?;
    let quantized_elements = r.usize()?;
    let vector_files = decode_vectors(r.bytes()?)?;
    Ok(ArchitectureCertificate {
        arch,
        iterations,
        format,
        quantized_elements,
        vector_files,
        vector_records: r.usize()?,
        vector_words: r.usize()?,
        max_fixed_error: r.f64()?,
        rms_fixed_error: r.f64()?,
        max_quant_error: r.f64()?,
        rms_quant_error: r.f64()?,
    })
}

fn decode_certificate(bytes: &[u8]) -> Result<ArchitectureCertificate, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let cert = decode_certificate_fields(&mut r)?;
    r.expect_end()?;
    Ok(cert)
}

fn put_frame_set(w: &mut ByteWriter, fs: &FrameSet) {
    w.put_u32(fs.len() as u32);
    w.put_usize(fs.width());
    w.put_usize(fs.height());
    for frame in fs.frames() {
        for &v in frame.as_slice() {
            w.put_f64(v);
        }
    }
}

fn get_frame_set(r: &mut ByteReader<'_>) -> Result<FrameSet, DecodeError> {
    let n = r.u32()? as usize;
    let width = r.usize()?;
    let height = r.usize()?;
    let elems = width
        .checked_mul(height)
        .filter(|&e| e > 0 && e <= (1 << 28))
        .ok_or_else(|| DecodeError(format!("invalid frame dims {width}x{height}")))?;
    if n == 0 || n > 64 {
        return Err(DecodeError(format!("invalid frame count {n}")));
    }
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let mut data = Vec::with_capacity(elems);
        for _ in 0..elems {
            data.push(r.f64()?);
        }
        frames.push(Frame::from_vec(width, height, data));
    }
    FrameSet::from_frames(frames).map_err(|e| DecodeError(format!("frame set: {e}")))
}

fn encode_references(refs: &(FrameSet, FrameSet)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_frame_set(&mut w, &refs.0);
    put_frame_set(&mut w, &refs.1);
    w.into_inner()
}

fn decode_references(bytes: &[u8]) -> Result<(FrameSet, FrameSet), DecodeError> {
    let mut r = ByteReader::new(bytes);
    let golden = get_frame_set(&mut r)?;
    let exact = get_frame_set(&mut r)?;
    r.expect_end()?;
    Ok((golden, exact))
}

fn encode_search(o: &FormatSearchOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64(o.budget.max_abs);
    w.put_f64(o.budget.rms);
    w.put_u32(o.budget.max_width);
    put_format(&mut w, o.chosen);
    put_format(&mut w, o.default_format);
    w.put_u64(o.default_area_luts);
    w.put_u64(o.chosen_area_luts);
    w.put_u32(o.probes.len() as u32);
    for p in &o.probes {
        put_format(&mut w, p.format);
        w.put_f64(p.max_abs_error);
        w.put_f64(p.rms_error);
        w.put_bool(p.within_budget);
    }
    w.put_raw(&encode_certificate(&o.certificate));
    w.into_inner()
}

fn decode_search(bytes: &[u8]) -> Result<FormatSearchOutcome, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let budget = ErrorBudget {
        max_abs: r.f64()?,
        rms: r.f64()?,
        max_width: r.u32()?,
    };
    let chosen = get_format(&mut r)?;
    let default_format = get_format(&mut r)?;
    let default_area_luts = r.u64()?;
    let chosen_area_luts = r.u64()?;
    let n = r.u32()? as usize;
    let mut probes = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        probes.push(FormatProbe {
            format: get_format(&mut r)?,
            max_abs_error: r.f64()?,
            rms_error: r.f64()?,
            within_budget: r.bool()?,
        });
    }
    let certificate = std::sync::Arc::new(decode_certificate_fields(&mut r)?);
    r.expect_end()?;
    Ok(FormatSearchOutcome {
        budget,
        chosen,
        default_format,
        default_area_luts,
        chosen_area_luts,
        probes,
        certificate,
    })
}

fn encode_synthesis(s: &SynthesisReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&s.design);
    put_window(&mut w, s.window);
    w.put_u32(s.depth);
    w.put_u32(s.cones);
    w.put_u64(s.luts);
    w.put_u64(s.ffs);
    w.put_u64(s.dsps);
    w.put_u64(s.slices);
    w.put_u64(s.registers);
    w.put_u64(s.input_buffer_bits);
    w.put_f64(s.critical_path_ns);
    w.put_f64(s.fmax_mhz);
    w.put_u32(s.latency_cycles);
    w.put_f64(s.utilization);
    w.put_f64(s.modeled_cpu_seconds);
    w.into_inner()
}

fn decode_synthesis(r: &mut ByteReader<'_>) -> Result<SynthesisReport, DecodeError> {
    Ok(SynthesisReport {
        design: r.str()?.to_string(),
        window: get_window(r)?,
        depth: r.u32()?,
        cones: r.u32()?,
        luts: r.u64()?,
        ffs: r.u64()?,
        dsps: r.u64()?,
        slices: r.u64()?,
        registers: r.u64()?,
        input_buffer_bits: r.u64()?,
        critical_path_ns: r.f64()?,
        fmax_mhz: r.f64()?,
        latency_cycles: r.u32()?,
        utilization: r.f64()?,
        modeled_cpu_seconds: r.f64()?,
    })
}

// ---------------------------------------------------------------------------
// The tier.
// ---------------------------------------------------------------------------

/// The [`ArtifactStore`](crate::ArtifactStore)'s persistent tier: one
/// [`DiskStore`] plus the typed fetch/put pairs above. Fetches that fail
/// to decode discard the record as corrupt and return `None` (cold build).
#[derive(Debug)]
pub(crate) struct DiskTier {
    store: DiskStore,
}

impl DiskTier {
    pub(crate) fn open(path: &Path) -> Result<Self, FlowError> {
        let _span = isl_telemetry::span!("persist", "load {}", path.display());
        let store = DiskStore::open(path, ARTIFACT_CODEC_VERSION).map_err(FlowError::from)?;
        let stats = store.stats();
        isl_telemetry::add("store.disk.load_records", stats.records);
        isl_telemetry::add("store.disk.load_corrupt", stats.skipped_corrupt);
        Ok(DiskTier { store })
    }

    pub(crate) fn with_byte_budget(self, byte_budget: u64) -> Self {
        DiskTier {
            store: self.store.with_byte_budget(byte_budget),
        }
    }

    pub(crate) fn stats(&self) -> isl_persist::DiskStats {
        self.store.stats()
    }

    pub(crate) fn flush(&self) -> Result<u64, FlowError> {
        let _span = isl_telemetry::span("persist", "flush");
        let report = self.store.flush().map_err(FlowError::from)?;
        if report.wrote {
            isl_telemetry::add("store.disk.flush_records", report.records as u64);
            isl_telemetry::add("store.disk.flush_bytes", report.bytes);
            isl_telemetry::add("store.disk.evicted", report.evicted as u64);
        }
        Ok(report.bytes)
    }

    /// Generic fetch: lookup, decode, and on decode failure discard the
    /// record as corrupt (counted) so the caller rebuilds cold.
    fn fetch<V>(
        &self,
        kind: u8,
        key: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<V, DecodeError>,
    ) -> Option<V> {
        let payload = self.store.lookup(kind, key);
        match payload {
            Some(bytes) => match decode(&bytes) {
                Ok(v) => {
                    isl_telemetry::add("store.disk.hit", 1);
                    Some(v)
                }
                Err(_) => {
                    self.store.discard_corrupt(kind, key);
                    isl_telemetry::add("store.disk.corrupt", 1);
                    None
                }
            },
            None => {
                isl_telemetry::add("store.disk.miss", 1);
                None
            }
        }
    }

    pub(crate) fn fetch_calibration(&self, key: &CalibrationKey) -> Option<Calibration> {
        self.fetch(KIND_CALIBRATION, &calibration_key(key), decode_calibration)
    }

    pub(crate) fn put_calibration(&self, key: &CalibrationKey, value: &Calibration) {
        self.store
            .insert(KIND_CALIBRATION, calibration_key(key), encode_calibration(value));
    }

    pub(crate) fn fetch_vectors(&self, key: &RunKey) -> Option<Vec<VectorFile>> {
        self.fetch(KIND_VECTORS, &run_key(key), decode_vectors)
    }

    pub(crate) fn put_vectors(&self, key: &RunKey, value: &[VectorFile]) {
        self.store
            .insert(KIND_VECTORS, run_key(key), encode_vectors(value));
    }

    pub(crate) fn fetch_certificate(
        &self,
        key: &RunKey,
        cores: u32,
    ) -> Option<ArchitectureCertificate> {
        self.fetch(KIND_CERTIFICATE, &cert_key(key, cores), decode_certificate)
    }

    pub(crate) fn put_certificate(
        &self,
        key: &RunKey,
        cores: u32,
        value: &ArchitectureCertificate,
    ) {
        self.store
            .insert(KIND_CERTIFICATE, cert_key(key, cores), encode_certificate(value));
    }

    pub(crate) fn fetch_references(&self, key: &RefKey) -> Option<(FrameSet, FrameSet)> {
        self.fetch(KIND_REFERENCES, &ref_key(key), decode_references)
    }

    pub(crate) fn put_references(&self, key: &RefKey, value: &(FrameSet, FrameSet)) {
        self.store
            .insert(KIND_REFERENCES, ref_key(key), encode_references(value));
    }

    pub(crate) fn fetch_search(&self, key: &SearchKey) -> Option<FormatSearchOutcome> {
        self.fetch(KIND_SEARCH, &search_key(key), decode_search)
    }

    pub(crate) fn put_search(&self, key: &SearchKey, value: &FormatSearchOutcome) {
        self.store
            .insert(KIND_SEARCH, search_key(key), encode_search(value));
    }

    /// Pre-seed every persisted synthesis report into the in-memory cache
    /// (neither hits nor misses — they were loaded, not requested).
    /// Records that fail to decode are discarded as corrupt.
    pub(crate) fn seed_syntheses(&self, cache: &SynthCache) {
        let mut corrupt: Vec<Vec<u8>> = Vec::new();
        for (key_bytes, payload) in self.store.entries_of_kind(KIND_SYNTHESIS) {
            let mut kr = ByteReader::new(&key_bytes);
            let mut pr = ByteReader::new(&payload);
            let decoded = decode_synth_key(&mut kr)
                .and_then(|k| kr.expect_end().map(|()| k))
                .and_then(|k| {
                    let report = decode_synthesis(&mut pr)?;
                    pr.expect_end()?;
                    Ok((k, report))
                });
            match decoded {
                Ok((key, report)) => cache.seed(key, report),
                Err(_) => corrupt.push(key_bytes),
            }
        }
        for key_bytes in corrupt {
            self.store.discard_corrupt(KIND_SYNTHESIS, &key_bytes);
            isl_telemetry::add("store.disk.corrupt", 1);
        }
    }

    /// Write every in-memory synthesis report the disk tier does not hold
    /// yet (reports are immutable per key, so present records are final).
    pub(crate) fn sync_syntheses(&self, cache: &SynthCache) {
        for (key, report) in cache.entries() {
            let key_bytes = synth_key(&key);
            if !self.store.contains(KIND_SYNTHESIS, &key_bytes) {
                self.store
                    .insert(KIND_SYNTHESIS, key_bytes, encode_synthesis(&report));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_report_codec_round_trips() {
        let report = SynthesisReport {
            design: "blur_w4x4_d2 x3".into(),
            window: Window::square(4),
            depth: 2,
            cones: 3,
            luts: 1234,
            ffs: 567,
            dsps: 8,
            slices: 400,
            registers: 77,
            input_buffer_bits: 2048,
            critical_path_ns: 3.21,
            fmax_mhz: 311.5,
            latency_cycles: 9,
            utilization: 0.0417,
            modeled_cpu_seconds: 123.456,
        };
        let bytes = encode_synthesis(&report);
        let mut r = ByteReader::new(&bytes);
        let back = decode_synthesis(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn frame_set_codec_is_bit_exact() {
        let f = Frame::from_fn(5, 3, |x, y| (x as f64 - 2.0) * 0.1 + y as f64);
        let fs = FrameSet::from_frames(vec![f.clone(), f]).unwrap();
        let bytes = encode_references(&(fs.clone(), fs.clone()));
        let (a, b) = decode_references(&bytes).unwrap();
        assert_eq!(a.fingerprint(), fs.fingerprint());
        assert_eq!(b.fingerprint(), fs.fingerprint());
    }

    #[test]
    fn truncated_payloads_fail_soft() {
        let f = Frame::from_fn(4, 4, |x, y| (x * y) as f64);
        let fs = FrameSet::from_frames(vec![f]).unwrap();
        let bytes = encode_references(&(fs.clone(), fs));
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_references(&bytes[..cut]).is_err());
        }
        assert!(decode_calibration(&bytes).is_err());
    }
}
