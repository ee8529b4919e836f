//! The session-wide artifact store.
//!
//! Every expensive artifact of the pipeline — built [`Cone`]s, compiled
//! bytecode programs, calibration synthesis reports, DSE calibrations,
//! golden vectors, whole architecture certificates and
//! precision format-search outcomes — is
//! keyed by its **content**: the pattern's structural fingerprint plus
//! every input that can change the value (shape, options, device, frame
//! bits). All the underlying producers are deterministic, so a stored
//! artifact is bit-identical to what a cold recompute would produce
//! (property-tested in `tests/tests/session_props.rs`), and the store can
//! hand out immutable `Arc`-shared handles freely — across stages, repeated
//! calls and threads.
//!
//! The three lower-level caches ([`ConeCache`], [`SynthCache`],
//! [`ProgramCache`]) are owned here and *shared into* the component crates
//! (synthesiser, explorer, simulator), so reuse spans the whole pipeline:
//! the cone the DSE facts pass built is the cone the VHDL backend renders
//! and the cone-DAG engine lowers. Every cache counts hits and misses;
//! [`ArtifactStore::stats`] is how the acceptance tests *prove* a warm pass
//! did zero redundant work.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use isl_dse::Calibration;
use isl_fpga::{FixedFormat, SynthCache, SynthOptions};
use isl_ir::{CacheStats, Cone, ConeCache, Window};
use isl_sim::{BorderMode, FrameSet, ProgramCache};
use isl_vhdl::VectorFile;

use crate::error::FlowError;
use crate::persist::DiskTier;
use crate::session::{ArchitectureCertificate, ErrorBudget, FormatSearchOutcome};

/// One entry of a [`CacheMap`]: either the finished artifact or a marker
/// that exactly one thread is building it right now.
#[derive(Debug)]
enum Slot<V> {
    Building,
    Ready(Arc<V>),
}

/// One generic content-keyed map with hit/miss counters and
/// **single-flight** builds: concurrent requests for one missing key elect
/// exactly one builder; the rest block on the condvar and are served the
/// builder's artifact (counted as hits — they computed nothing).
#[derive(Debug)]
struct CacheMap<K, V> {
    state: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K, V> Default for CacheMap<K, V> {
    fn default() -> Self {
        CacheMap {
            state: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

/// Removes a `Building` marker (and wakes waiters) if the builder exits
/// without publishing — an error or a panic. Waiters then re-elect.
struct BuildGuard<'a, K: std::hash::Hash + Eq + Clone, V> {
    cache: &'a CacheMap<K, V>,
    key: K,
    armed: bool,
}

impl<K: std::hash::Hash + Eq + Clone, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut map = self.cache.state.lock().expect("artifact store");
            if matches!(map.get(&self.key), Some(Slot::Building)) {
                map.remove(&self.key);
            }
            drop(map);
            self.cache.ready.notify_all();
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> CacheMap<K, V> {
    /// Serve `key` from the map or produce it with `produce` (outside the
    /// lock, single-flight) and store it. `produce` reports whether it
    /// *built* the value (`true`) or sourced it from elsewhere — the disk
    /// tier — (`false`); only genuine builds count as misses, so the miss
    /// counters keep meaning "something was actually computed". Errors are
    /// not cached; waiters of a failed build re-elect a builder.
    fn get_or_build<E>(
        &self,
        key: K,
        produce: impl FnOnce() -> Result<(V, bool), E>,
    ) -> Result<Arc<V>, E> {
        {
            let mut map = self.state.lock().expect("artifact store");
            loop {
                match map.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(v));
                    }
                    Some(Slot::Building) => {
                        map = self.ready.wait(map).expect("artifact store");
                    }
                    None => {
                        map.insert(key.clone(), Slot::Building);
                        break;
                    }
                }
            }
        }
        let mut guard = BuildGuard { cache: self, key, armed: true };
        match produce() {
            Ok((value, built)) => {
                if built {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                let arc = Arc::new(value);
                let mut map = self.state.lock().expect("artifact store");
                map.insert(guard.key.clone(), Slot::Ready(Arc::clone(&arc)));
                guard.armed = false;
                drop(map);
                self.ready.notify_all();
                Ok(arc)
            }
            Err(e) => Err(e), // guard drop clears the marker and notifies
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The option bits that feed synthesis-derived artifact keys.
type OptionBits = (FixedFormat, bool, bool, bool, bool);

fn option_bits(o: &SynthOptions) -> OptionBits {
    (
        o.format,
        o.inter_cone_sharing,
        o.jitter,
        o.simplify,
        o.use_dsp,
    )
}

/// Encode a border mode into hashable bits (the constant by bit pattern).
fn border_bits(b: BorderMode) -> (u8, u64) {
    match b {
        BorderMode::Clamp => (0, 0),
        BorderMode::Mirror => (1, 0),
        BorderMode::Wrap => (2, 0),
        BorderMode::Constant(c) => (3, c.to_bits()),
    }
}

/// Identity of one DSE calibration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CalibrationKey {
    pub(crate) pattern: u64,
    pub(crate) device: String,
    pub(crate) options: OptionBits,
    pub(crate) iterations: u32,
    pub(crate) sides: Vec<u32>,
    pub(crate) depths: Vec<u32>,
}

impl CalibrationKey {
    pub(crate) fn new(
        pattern: u64,
        device: &isl_fpga::Device,
        options: &SynthOptions,
        iterations: u32,
        space: &isl_dse::DesignSpace,
    ) -> Self {
        CalibrationKey {
            pattern,
            device: device.name.clone(),
            options: option_bits(options),
            iterations,
            sides: space.window_sides.clone(),
            depths: space.depths.clone(),
        }
    }

    pub(crate) fn describe(&self) -> String {
        format!(
            "calibration {:016x} on {} N={}",
            self.pattern, self.device, self.iterations
        )
    }
}

/// Identity of one quantised run of one cone decomposition (golden
/// vectors do not depend on the core count; certificates add it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    pub(crate) pattern: u64,
    pub(crate) init: u64,
    pub(crate) format: FixedFormat,
    pub(crate) border: (u8, u64),
    pub(crate) iterations: u32,
    pub(crate) window: Window,
    pub(crate) depth: u32,
}

impl RunKey {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pattern: u64,
        init: &isl_sim::FrameSet,
        format: FixedFormat,
        border: BorderMode,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Self {
        RunKey {
            pattern,
            init: init.fingerprint(),
            format,
            border: border_bits(border),
            iterations,
            window,
            depth,
        }
    }

    pub(crate) fn describe(&self) -> String {
        format!(
            "run {:016x}/{:016x} w{} d{} N={}",
            self.pattern, self.init, self.window, self.depth, self.iterations
        )
    }
}

/// Identity of the format-independent `f64` reference runs of one
/// decomposition (the whole-frame golden run and the exact-arithmetic
/// cone-DAG run): [`RunKey`] minus the fixed-point format. Certification
/// measures every probed format against the same pair, so a format search
/// computes it once instead of once per probe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RefKey {
    pub(crate) pattern: u64,
    pub(crate) init: u64,
    pub(crate) border: (u8, u64),
    pub(crate) iterations: u32,
    pub(crate) window: Window,
    pub(crate) depth: u32,
}

impl RefKey {
    pub(crate) fn new(
        pattern: u64,
        init: &FrameSet,
        border: BorderMode,
        iterations: u32,
        window: Window,
        depth: u32,
    ) -> Self {
        RefKey {
            pattern,
            init: init.fingerprint(),
            border: border_bits(border),
            iterations,
            window,
            depth,
        }
    }
}

/// Identity of one precision format search: the certified run it probes
/// (pattern, frames, border, decomposition, cores), the device and
/// non-format synthesis options its area axis is computed under, the
/// session's default format (the search reports area relative to it), and
/// the budget (by bit pattern). The probed formats themselves are *not*
/// part of the key — they are the search's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SearchKey {
    pub(crate) run: RunKey,
    pub(crate) cores: u32,
    pub(crate) device: String,
    pub(crate) options: OptionBits,
    pub(crate) budget: (u64, u64, u32),
}

impl SearchKey {
    pub(crate) fn new(
        run: RunKey,
        cores: u32,
        device: &isl_fpga::Device,
        options: &SynthOptions,
        budget: &ErrorBudget,
    ) -> Self {
        SearchKey {
            run,
            cores,
            device: device.name.clone(),
            options: option_bits(options),
            budget: (
                budget.max_abs.to_bits(),
                budget.rms.to_bits(),
                budget.max_width,
            ),
        }
    }

    pub(crate) fn describe(&self) -> String {
        format!("format search over {} on {}", self.run.describe(), self.device)
    }
}

/// Per-kind hit/miss counters of an [`ArtifactStore`] — the observable
/// evidence of reuse. `misses` only grow when something was actually built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Built cones (shared by DSE, synthesis probes, engines, VHDL).
    pub cones: CacheStats,
    /// Compiled bytecode programs (pattern kernels and cone programs).
    pub programs: CacheStats,
    /// Synthesis reports (calibration and probe syntheses).
    pub syntheses: CacheStats,
    /// DSE calibrations (estimators + cone facts per device/space).
    pub calibrations: CacheStats,
    /// Golden-vector sets of recorded decompositions.
    pub vectors: CacheStats,
    /// Architecture certificates.
    pub certificates: CacheStats,
    /// Format-independent `f64` reference-run pairs (golden + exact
    /// cone-DAG) shared by every certification of one decomposition.
    pub references: CacheStats,
    /// Precision format-search outcomes.
    pub searches: CacheStats,
    /// Artifacts served from the persistent disk tier (decoded, not
    /// recomputed). Zero when the store has no disk tier.
    pub disk_hits: usize,
    /// Disk-tier lookups that found no record (the artifact was built
    /// cold). Zero when the store has no disk tier.
    pub disk_misses: usize,
    /// Corrupt disk records skipped — framing/checksum failures at load
    /// plus payloads that failed their codec. Corruption degrades to a
    /// cold build, never a panic.
    pub load_skipped_corrupt: usize,
    /// Size of the persistent store file at the last load or flush, bytes.
    pub bytes_on_disk: u64,
    /// Format-search escalation probes whose full certification was
    /// skipped because the `isl-analyze` abstract interpreter proved the
    /// width statically may-saturating and the cheap error measurement
    /// confirmed the budget miss. Probe results stay bit-identical; this
    /// counts avoided work only.
    pub analysis_pruned_probes: usize,
}

impl StoreStats {
    /// Total artifacts built (cache misses) across every kind.
    pub fn total_misses(&self) -> usize {
        self.cones.misses
            + self.programs.misses
            + self.syntheses.misses
            + self.calibrations.misses
            + self.vectors.misses
            + self.certificates.misses
            + self.references.misses
            + self.searches.misses
    }

    /// Total lookups served from the store across every kind.
    pub fn total_hits(&self) -> usize {
        self.cones.hits
            + self.programs.hits
            + self.syntheses.hits
            + self.calibrations.hits
            + self.vectors.hits
            + self.certificates.hits
            + self.references.hits
            + self.searches.hits
    }

    /// Misses of the artifact kinds a *quantised build* produces — compiled
    /// programs, golden-vector sets and certificates. The format-search
    /// acceptance criterion ("a warm re-search performs zero redundant
    /// quantised builds") is an assertion that this number does not move.
    pub fn quantized_build_misses(&self) -> usize {
        self.programs.misses + self.vectors.misses + self.certificates.misses
    }

    /// `(kind name, counters)` rows in declaration order — the iteration
    /// the `Display` impl and the telemetry run report share.
    pub fn rows(&self) -> [(&'static str, CacheStats); 8] {
        [
            ("cones", self.cones),
            ("programs", self.programs),
            ("syntheses", self.syntheses),
            ("calibrations", self.calibrations),
            ("vectors", self.vectors),
            ("certificates", self.certificates),
            ("references", self.references),
            ("searches", self.searches),
        ]
    }
}

impl std::fmt::Display for StoreStats {
    /// One aligned line per cache kind, e.g.
    /// `cones          hits     12   misses      3`, closed by the disk
    /// tier's counters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, s)) in self.rows().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<13} hits {:>6}   misses {:>6}", s.hits, s.misses)?;
        }
        writeln!(f)?;
        write!(
            f,
            "{:<13} hits {:>6}   misses {:>6}   corrupt {:>4}   bytes {:>9}",
            "disk", self.disk_hits, self.disk_misses, self.load_skipped_corrupt, self.bytes_on_disk
        )?;
        writeln!(f)?;
        write!(
            f,
            "{:<13} pruned probes {:>4}",
            "analysis", self.analysis_pruned_probes
        )?;
        Ok(())
    }
}

/// The concurrency-safe artifact store one [`crate::IslSession`] owns (and
/// all its clones share): every expensive artifact of the pipeline, keyed
/// by content, served as immutable `Arc` handles, with per-kind hit/miss
/// counters ([`ArtifactStore::stats`]) that make reuse provable.
///
/// A store opened with [`ArtifactStore::open_persistent`] additionally
/// carries a **disk tier**: on a memory miss the persistent record file is
/// consulted first (a decoded artifact is a `disk_hit`, not a build), cold
/// builds are written back, and [`ArtifactStore::checkpoint`] — also run
/// on drop — publishes the file atomically. Corrupt records degrade to
/// cold builds with counted skips, never a panic.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    cones: ConeCache,
    programs: ProgramCache,
    synths: SynthCache,
    calibrations: CacheMap<CalibrationKey, Calibration>,
    vectors: CacheMap<RunKey, Vec<VectorFile>>,
    certificates: CacheMap<(RunKey, u32), ArchitectureCertificate>,
    references: CacheMap<RefKey, (FrameSet, FrameSet)>,
    searches: CacheMap<SearchKey, FormatSearchOutcome>,
    disk: Option<DiskTier>,
    /// See [`StoreStats::analysis_pruned_probes`].
    pruned_probes: AtomicUsize,
}

impl Drop for ArtifactStore {
    /// Best-effort flush of the disk tier when the last session handle
    /// goes away. Failures are reported on stderr (a drop cannot return
    /// them); call [`ArtifactStore::checkpoint`] explicitly to observe
    /// flush errors.
    fn drop(&mut self) {
        if self.disk.is_some() {
            if let Err(e) = self.checkpoint() {
                eprintln!("isl-hls: persistent store flush failed on drop: {e}");
            }
        }
    }
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store backed by the persistent record file at `path` (created on
    /// first checkpoint if missing): previously persisted artifacts are
    /// served instead of recomputed, and new builds are written back at
    /// [`ArtifactStore::checkpoint`] / drop. Synthesis reports persisted
    /// by an earlier process are pre-seeded into the synthesis cache.
    ///
    /// A version-mismatched file is discarded wholesale; corrupt records
    /// are skipped and counted ([`StoreStats::load_skipped_corrupt`]).
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] when the file exists but cannot be read.
    pub fn open_persistent(path: impl AsRef<Path>) -> Result<Self, FlowError> {
        let tier = DiskTier::open(path.as_ref())?;
        let mut store = ArtifactStore::new();
        tier.seed_syntheses(&store.synths);
        store.disk = Some(tier);
        Ok(store)
    }

    /// Cap the persistent file size, in bytes; checkpoints evict the
    /// least-recently-used records down to the budget before writing.
    /// No-op on a store without a disk tier.
    pub fn with_byte_budget(mut self, byte_budget: u64) -> Self {
        if let Some(tier) = self.disk.take() {
            self.disk = Some(tier.with_byte_budget(byte_budget));
        }
        self
    }

    /// Whether this store carries a persistent disk tier.
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// Flush the disk tier: sync the synthesis-report cache into it and
    /// publish the record file atomically (write-then-rename). A store
    /// without a disk tier, or with nothing new, writes nothing. Returns
    /// the bytes written (0 when clean).
    ///
    /// # Errors
    ///
    /// [`FlowError::Io`] on filesystem failures; the previous file is
    /// untouched.
    pub fn checkpoint(&self) -> Result<u64, FlowError> {
        match &self.disk {
            Some(tier) => {
                tier.sync_syntheses(&self.synths);
                tier.flush()
            }
            None => Ok(0),
        }
    }

    /// The shared cone store (handed to the synthesiser, explorer and
    /// simulators).
    pub fn cones(&self) -> &ConeCache {
        &self.cones
    }

    /// The shared compiled-program store (handed to simulators).
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// The shared synthesis-report store (handed to the synthesiser and
    /// explorer).
    pub fn syntheses(&self) -> &SynthCache {
        &self.synths
    }

    /// One cone, via the shared cone store.
    pub(crate) fn cone(
        &self,
        pattern: &isl_ir::StencilPattern,
        window: Window,
        depth: u32,
        simplify: bool,
    ) -> Result<Arc<Cone>, isl_ir::ConeError> {
        self.cones.get_or_build(pattern, window, depth, simplify)
    }

    /// Disk-then-build producer: consult the disk tier first (a decoded
    /// artifact is *not* a build), fall back to `build` and write the
    /// result back. The `bool` feeds the memory cache's miss counter.
    fn disk_or_build<V, E>(
        &self,
        fetch: impl FnOnce(&DiskTier) -> Option<V>,
        put: impl FnOnce(&DiskTier, &V),
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(tier) = &self.disk {
            if let Some(value) = fetch(tier) {
                return Ok((value, false));
            }
        }
        let value = build()?;
        if let Some(tier) = &self.disk {
            put(tier, &value);
        }
        Ok((value, true))
    }

    pub(crate) fn calibration<E>(
        &self,
        key: CalibrationKey,
        build: impl FnOnce() -> Result<Calibration, E>,
    ) -> Result<Arc<Calibration>, E> {
        self.calibrations.get_or_build(key.clone(), || {
            self.disk_or_build(
                |t| t.fetch_calibration(&key),
                |t, v| t.put_calibration(&key, v),
                build,
            )
        })
    }

    pub(crate) fn golden_vectors<E>(
        &self,
        key: RunKey,
        build: impl FnOnce() -> Result<Vec<VectorFile>, E>,
    ) -> Result<Arc<Vec<VectorFile>>, E> {
        self.vectors.get_or_build(key.clone(), || {
            self.disk_or_build(
                |t| t.fetch_vectors(&key),
                |t, v| t.put_vectors(&key, v),
                build,
            )
        })
    }

    pub(crate) fn certificate<E>(
        &self,
        key: RunKey,
        cores: u32,
        build: impl FnOnce() -> Result<ArchitectureCertificate, E>,
    ) -> Result<Arc<ArchitectureCertificate>, E> {
        self.certificates.get_or_build((key.clone(), cores), || {
            self.disk_or_build(
                |t| t.fetch_certificate(&key, cores),
                |t, v| t.put_certificate(&key, cores, v),
                build,
            )
        })
    }

    /// The `(whole-frame golden, exact cone-DAG)` reference pair of one
    /// decomposition — shared by every certification probing it.
    pub(crate) fn reference_runs<E>(
        &self,
        key: RefKey,
        build: impl FnOnce() -> Result<(FrameSet, FrameSet), E>,
    ) -> Result<Arc<(FrameSet, FrameSet)>, E> {
        self.references.get_or_build(key.clone(), || {
            self.disk_or_build(
                |t| t.fetch_references(&key),
                |t, v| t.put_references(&key, v),
                build,
            )
        })
    }

    pub(crate) fn format_search<E>(
        &self,
        key: SearchKey,
        build: impl FnOnce() -> Result<FormatSearchOutcome, E>,
    ) -> Result<Arc<FormatSearchOutcome>, E> {
        self.searches.get_or_build(key.clone(), || {
            self.disk_or_build(
                |t| t.fetch_search(&key),
                |t, v| t.put_search(&key, v),
                build,
            )
        })
    }

    /// Snapshot every hit/miss counter (disk tier included).
    pub fn stats(&self) -> StoreStats {
        let disk = self.disk.as_ref().map(DiskTier::stats).unwrap_or_default();
        StoreStats {
            cones: self.cones.stats(),
            programs: self.programs.stats(),
            syntheses: self.synths.stats(),
            calibrations: self.calibrations.stats(),
            vectors: self.vectors.stats(),
            certificates: self.certificates.stats(),
            references: self.references.stats(),
            searches: self.searches.stats(),
            disk_hits: disk.hits as usize,
            disk_misses: disk.misses as usize,
            load_skipped_corrupt: disk.skipped_corrupt as usize,
            bytes_on_disk: disk.bytes_on_disk,
            analysis_pruned_probes: self.pruned_probes.load(Ordering::Relaxed),
        }
    }

    /// Count one escalation probe whose full certification the static
    /// analyzer's saturation proof made skippable.
    pub(crate) fn note_pruned_probe(&self) {
        self.pruned_probes.fetch_add(1, Ordering::Relaxed);
    }
}
