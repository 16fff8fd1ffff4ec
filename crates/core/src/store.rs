//! The persistent artifact store: classify-stage results on disk,
//! surviving the process.
//!
//! A session's in-memory memo tables ([`crate::Analyzer`]) already carry
//! per-stage artifacts across the candidate nests of one optimizer
//! search; this module extends the outermost artifact — the finished
//! [`NestAnalysis`] — across *processes*, so a repeated query (a
//! re-started search, a second `cme-serve` client, a corpus replay)
//! costs one file read instead of a full pipeline run.
//!
//! Entries are keyed by [`ArtifactKey`]: `(structural_hash, layout_hash,
//! cache geometry, options fingerprint)`, with the engine version and
//! store format version echoed in every file header. That tuple pins the
//! analysis inputs exactly (see `cme_ir::db`), so a stored result is
//! bit-identical to recomputing — which is why a store hit satisfies any
//! request budget: the stored artifact is always a *complete* analysis.
//!
//! Trust and failure model:
//!
//! - files carry the `CMEA` magic, both versions, a full key echo, and an
//!   FNV-1a checksum over everything else; any mismatch (truncation,
//!   corruption, version skew, filename collision) is a **miss** — the
//!   caller recomputes — and corrupt or version-skewed entries are
//!   deleted, never trusted;
//! - governor-truncated analyses are sound overcounts, not exact
//!   artifacts: the engine never offers them to [`ArtifactStore::put`]
//!   (and callers must not);
//! - writes are atomic (temp file + rename), so a crash mid-write leaves
//!   at worst an ignored temp file, never a half entry under a live name;
//! - the store is size-bounded: beyond [`ArtifactStore::max_bytes`],
//!   least-recently-*used* entries are evicted (reads touch the file
//!   mtime), and single entries above `max_entry_bytes` are not persisted
//!   at all.
//!
//! I/O failures never fail an analysis: a read error is a miss, a write
//! error is counted ([`StoreStats::write_errors`]) and dropped.

use crate::api::json::{obj, Json};
use crate::faults::{FaultPlan, ReadFault, WriteFault};
use crate::solve::{AnalysisOptions, NestAnalysis, RefAnalysis, VectorReport};
use cme_cache::{CacheConfig, CacheModel};
use cme_ir::codec::{fnv1a64, CodecError, Decoder, Encoder};
use cme_ir::{KeyHasher, RefId};
use cme_reuse::{ReuseKind, ReuseVector};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Layout version of the artifact file format. Bump on any codec change;
/// old entries are evicted on first contact, not migrated.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// The engine version stamped into (and required of) every artifact:
/// results from another engine build are recomputed, not trusted.
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

const MAGIC: &[u8; 4] = b"CMEA";

/// Extension of live entries; temp files use `.tmp` and are ignored.
const ENTRY_EXT: &str = "cmea";

/// The identity of one persisted artifact: everything the analysis result
/// depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Base-invariant structural hash of the nest
    /// ([`cme_ir::db::structural_hash`]).
    pub structural: u128,
    /// Full layout hash — every array base ([`cme_ir::db::layout_hash`]).
    pub layout: u128,
    /// Cache geometry as `[size, assoc, line, elem]` bytes.
    pub cache: [i64; 4],
    /// Fingerprint of the [`AnalysisOptions`]
    /// ([`options_fingerprint`]).
    pub options_fp: u128,
}

impl ArtifactKey {
    /// Builds the key for one `(nest, geometry, options)` query.
    pub fn new(
        structural: u128,
        layout: u128,
        cache: &CacheConfig,
        options: &AnalysisOptions,
    ) -> Self {
        ArtifactKey {
            structural,
            layout,
            cache: [
                cache.size_bytes(),
                cache.assoc(),
                cache.line_bytes(),
                cache.elem_bytes(),
            ],
            options_fp: options_fingerprint(options),
        }
    }

    /// [`ArtifactKey::new`] for a query against an arbitrary
    /// [`CacheModel`]: the replacement/write policy and the optional L2
    /// are folded into the options fingerprint
    /// ([`model_fingerprint`]), so artifacts produced under different
    /// models can never alias — while the baseline model (single-level
    /// LRU write-back) produces keys bit-identical to
    /// [`ArtifactKey::new`], keeping every pre-model store entry valid.
    pub fn for_model(
        structural: u128,
        layout: u128,
        model: &CacheModel,
        options: &AnalysisOptions,
    ) -> Self {
        let mut key = ArtifactKey::new(structural, layout, &model.l1(), options);
        key.options_fp = model_fingerprint(options, model);
        key
    }

    /// The entry's file name: a 128-bit composite hash in hex. The full
    /// key is echoed inside the file, so a (vanishingly unlikely) name
    /// collision reads as a miss, never as a wrong result.
    pub fn file_name(&self) -> String {
        let mut h = KeyHasher::new(0xa27f);
        h.feed(&self.structural)
            .feed(&self.layout)
            .feed(&self.cache)
            .feed(&self.options_fp);
        format!("{:032x}.{ENTRY_EXT}", h.finish())
    }

    fn encode(&self, e: &mut Encoder) {
        e.u128(self.structural);
        e.u128(self.layout);
        for v in self.cache {
            e.i64(v);
        }
        e.u128(self.options_fp);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ArtifactKey {
            structural: d.u128()?,
            layout: d.u128()?,
            cache: [d.i64()?, d.i64()?, d.i64()?, d.i64()?],
            options_fp: d.u128()?,
        })
    }
}

/// Hashes every analysis-relevant field of [`AnalysisOptions`] into the
/// store key. Any option that can change the result (or its recorded
/// side data, like collected miss points) must land here.
pub fn options_fingerprint(options: &AnalysisOptions) -> u128 {
    let mut h = KeyHasher::new(0x09f5);
    // Constants fill the slots of removed options with the values every
    // analysis used (`false`; reuse generation's vector cap and candidate
    // budget), so every key persisted before their removal stays valid.
    h.feed(&options.epsilon)
        .feed(&options.exact_equation_counts)
        .feed(&options.collect_miss_points)
        .feed(&false)
        .feed(&options.reuse.group)
        .feed(&options.reuse.extended)
        .feed(&16_384usize)
        .feed(&400_000usize);
    h.finish()
}

/// [`options_fingerprint`] extended with the [`CacheModel`]: for the
/// baseline model (single-level LRU write-back — the geometry already in
/// [`ArtifactKey::cache`]) this returns *exactly*
/// `options_fingerprint(options)`, so every store key minted before the
/// model existed stays valid; any other policy, write handling, or L2
/// perturbs the fingerprint and can never alias a baseline artifact (or
/// another model's).
pub fn model_fingerprint(options: &AnalysisOptions, model: &CacheModel) -> u128 {
    let base = options_fingerprint(options);
    if model.is_baseline() {
        return base;
    }
    let mut h = KeyHasher::new(0x5b1d);
    h.feed(&base).feed(model);
    h.finish()
}

/// A store failure that the caller cannot transparently recover from —
/// today that is only opening the store directory. Per-entry read/write
/// failures degrade to misses and counters instead.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store directory could not be created or probed.
    Open {
        /// The directory.
        dir: PathBuf,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Open { dir, message } => {
                write!(f, "cannot open artifact store {}: {message}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt_evicted: AtomicU64,
    version_evicted: AtomicU64,
    lru_evicted: AtomicU64,
    skipped_large: AtomicU64,
    write_errors: AtomicU64,
}

/// Snapshot of a store's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to recompute (absent, corrupt, version
    /// skew, or read error).
    pub misses: u64,
    /// Entries persisted.
    pub writes: u64,
    /// Entries deleted because their bytes failed integrity checks.
    pub corrupt_evicted: u64,
    /// Entries deleted because their format or engine version differed.
    pub version_evicted: u64,
    /// Entries deleted by the size bound (least recently used first).
    pub lru_evicted: u64,
    /// Artifacts not persisted because they exceeded the per-entry cap.
    pub skipped_large: u64,
    /// Writes dropped on I/O failure (the analysis still succeeded).
    pub write_errors: u64,
}

impl StoreStats {
    /// The stats schema: one key per field, under its Rust name. The
    /// `stats` op and `Display` print this encoding.
    pub fn to_json(&self) -> Json {
        obj([
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("writes", Json::UInt(self.writes)),
            ("corrupt_evicted", Json::UInt(self.corrupt_evicted)),
            ("version_evicted", Json::UInt(self.version_evicted)),
            ("lru_evicted", Json::UInt(self.lru_evicted)),
            ("skipped_large", Json::UInt(self.skipped_large)),
            ("write_errors", Json::UInt(self.write_errors)),
        ])
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json().encode())
    }
}

/// The on-disk artifact store: one checksummed file per analysis result,
/// shared by every session (and process) pointed at the same directory.
///
/// All methods take `&self`; the store is safe to share behind an `Arc`
/// across threads (concurrent writers of the same key race to an
/// identical file via atomic rename).
///
/// ```
/// use cme_cache::CacheConfig;
/// use cme_core::store::{ArtifactKey, ArtifactStore};
/// use cme_core::AnalysisOptions;
///
/// let dir = std::env::temp_dir().join("cme-store-doc");
/// let store = ArtifactStore::open(&dir)?;
/// let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
/// let key = ArtifactKey::new(1, 2, &cache, &AnalysisOptions::default());
/// assert!(store.get(&key).is_none()); // cold
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), cme_core::store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    max_bytes: u64,
    max_entry_bytes: u64,
    counters: StoreCounters,
    faults: Option<Arc<FaultPlan>>,
}

impl ArtifactStore {
    /// Default size bound: 256 MiB of artifacts.
    pub const DEFAULT_MAX_BYTES: u64 = 256 << 20;

    /// Default per-entry cap: 16 MiB (a single huge traced analysis must
    /// not dominate the whole store).
    pub const DEFAULT_MAX_ENTRY_BYTES: u64 = 16 << 20;

    /// Opens (creating if needed) the store at `dir` with default bounds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Open`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_bounded(dir, Self::DEFAULT_MAX_BYTES, Self::DEFAULT_MAX_ENTRY_BYTES)
    }

    /// [`ArtifactStore::open`] with explicit total and per-entry byte
    /// bounds.
    ///
    /// # Errors
    ///
    /// [`StoreError::Open`].
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: u64,
        max_entry_bytes: u64,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::Open {
            dir: dir.clone(),
            message: e.to_string(),
        })?;
        Ok(ArtifactStore {
            dir,
            max_bytes,
            max_entry_bytes,
            counters: StoreCounters::default(),
            faults: None,
        })
    }

    /// Attaches a seeded [`FaultPlan`] (chaos testing): every subsequent
    /// read and write consults the plan and may fail, truncate, corrupt,
    /// tear, or abandon the operation exactly as the matching real I/O
    /// failure would. The store's degradation contract is unchanged —
    /// that is the point: callers must not be able to tell an injected
    /// fault from a real one.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The total size bound in bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Snapshot of the traffic counters (per store handle, not global
    /// across processes).
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            writes: c.writes.load(Ordering::Relaxed),
            corrupt_evicted: c.corrupt_evicted.load(Ordering::Relaxed),
            version_evicted: c.version_evicted.load(Ordering::Relaxed),
            lru_evicted: c.lru_evicted.load(Ordering::Relaxed),
            skipped_large: c.skipped_large.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Live entries on disk right now (diagnostics and tests).
    pub fn entry_count(&self) -> usize {
        self.usage().0
    }

    /// Total bytes of live entries on disk right now.
    pub fn total_bytes(&self) -> u64 {
        self.usage().1
    }

    /// [`Self::entry_count`] and [`Self::total_bytes`] from one listing
    /// of the store directory.
    pub fn usage(&self) -> (usize, u64) {
        let entries = self.entries();
        (entries.len(), entries.iter().map(|e| e.len).sum())
    }

    /// Looks up a persisted analysis. `None` is a miss for *any* reason —
    /// absent, corrupt (entry deleted), version skew (entry deleted), key
    /// echo mismatch, or read error — and means "recompute". A hit
    /// touches the entry's mtime, making eviction least-recently-used.
    pub fn get(&self, key: &ArtifactKey) -> Option<NestAnalysis> {
        let path = self.dir.join(key.file_name());
        let decoded = match self.read_entry_bytes(&path) {
            Ok(bytes) => decode_framed(&bytes, key),
            Err(_) => Ok(None),
        };
        match decoded {
            Ok(Some(analysis)) => {
                // LRU touch; best-effort (a read-only store still serves).
                if let Ok(f) = fs::File::options().append(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some(analysis);
            }
            // A key-echo mismatch is someone else's entry under a
            // colliding name: not ours to evict.
            Ok(None) => {}
            Err(kind) => {
                let slot = match kind {
                    EntryReject::Corrupt => &self.counters.corrupt_evicted,
                    EntryReject::Version => &self.counters.version_evicted,
                };
                slot.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Persists a **complete** analysis under `key`, then enforces the
    /// size bound. Truncated (exhausted) analyses must never be offered:
    /// they are sound overcounts, not exact artifacts, and a later reader
    /// could not tell the difference. I/O failures are counted and
    /// swallowed — persistence is an optimization, not a contract.
    pub fn put(&self, key: &ArtifactKey, analysis: &NestAnalysis) {
        let bytes = encode_framed(key, analysis);
        if bytes.len() as u64 > self.max_entry_bytes {
            self.counters.skipped_large.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.write_entry(&self.dir.join(key.file_name()), &bytes) {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
            self.evict_to_fit();
        }
    }

    /// Reads an entry's raw bytes, routing through the fault plan when
    /// one is attached: an injected read error behaves exactly like a
    /// failed `fs::read`; truncation and byte flips mutate the returned
    /// stream so the decoder's checksum discipline is what catches them.
    fn read_entry_bytes(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let fault = self.faults.as_ref().and_then(|f| f.next_read_fault());
        if matches!(fault, Some(ReadFault::Error)) {
            return Err(std::io::Error::other("injected read error"));
        }
        let mut bytes = fs::read(path)?;
        if bytes.is_empty() {
            return Ok(bytes);
        }
        match (fault, &self.faults) {
            (Some(ReadFault::Truncate), Some(plan)) => {
                let cut = plan.cut_point(bytes.len());
                bytes.truncate(cut);
            }
            (Some(ReadFault::FlipByte), Some(plan)) => {
                let at = plan.cut_point(bytes.len()).min(bytes.len() - 1);
                bytes[at] ^= 0x40;
            }
            _ => {}
        }
        Ok(bytes)
    }

    /// Writes `bytes` under `final_path` via the atomic temp+rename
    /// discipline, routing through the fault plan when one is attached.
    /// Returns `false` when the write (real or injected) failed outright;
    /// torn and crash-abandoned writes return as the matching real
    /// failure would (a torn write "succeeds" from the writer's view —
    /// the *next reader* is who must catch it).
    fn write_entry(&self, final_path: &Path, bytes: &[u8]) -> bool {
        let fault = self.faults.as_ref().and_then(|f| f.next_write_fault());
        if matches!(fault, Some(WriteFault::Error)) {
            self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let written: &[u8] = match (&fault, &self.faults) {
            (Some(WriteFault::Torn), Some(plan)) => &bytes[..plan.cut_point(bytes.len())],
            _ => bytes,
        };
        let tmp_path = self.dir.join(format!(
            "{:016x}-{:x}.tmp",
            fnv1a64(final_path.as_os_str().as_encoded_bytes()),
            std::process::id()
        ));
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(written)?;
            f.sync_all()?;
            if matches!(fault, Some(WriteFault::CrashBeforeRename)) {
                // The simulated crash: the temp file is stranded and the
                // live name never changes. The writer reports success the
                // way a really-crashed process reports nothing at all.
                return Ok(());
            }
            fs::rename(&tmp_path, final_path)
        })();
        match write {
            Ok(()) => true,
            Err(_) => {
                let _ = fs::remove_file(&tmp_path);
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    fn entries(&self) -> Vec<EntryMeta> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            out.push(EntryMeta {
                path,
                len: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        out
    }

    /// Deletes least-recently-used entries until the total fits
    /// `max_bytes`.
    fn evict_to_fit(&self) {
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total <= self.max_bytes {
            return;
        }
        entries.sort_by_key(|e| e.mtime);
        for e in entries {
            if total <= self.max_bytes {
                break;
            }
            if fs::remove_file(&e.path).is_ok() {
                total = total.saturating_sub(e.len);
                self.counters.lru_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

struct EntryMeta {
    path: PathBuf,
    len: u64,
    mtime: SystemTime,
}

enum EntryReject {
    /// Checksum/shape failure: the bytes are not a well-formed entry.
    Corrupt,
    /// Well-formed, but written by a different format or engine version.
    Version,
}

/// Serializes one entry: header (magic, versions, key echo), the
/// analysis, trailing FNV-1a checksum over everything before it.
fn encode_framed(key: &ArtifactKey, analysis: &NestAnalysis) -> Vec<u8> {
    let mut e = Encoder::new();
    e.raw(MAGIC);
    e.u32(STORE_FORMAT_VERSION);
    e.str(ENGINE_VERSION);
    key.encode(&mut e);
    encode_analysis(&mut e, analysis);
    let checksum = fnv1a64(e.bytes());
    e.u64(checksum);
    e.into_bytes()
}

/// Decodes one entry framed by [`encode_framed`]. `Ok(None)` = well-formed
/// entry for a *different* key (filename collision — not ours to evict).
/// `Err` says whether the entry is corrupt or merely version-skewed;
/// either way it is safe to delete.
fn decode_framed(bytes: &[u8], key: &ArtifactKey) -> Result<Option<NestAnalysis>, EntryReject> {
    // Checksum first: nothing else in the file is trusted before it.
    if bytes.len() < MAGIC.len() + 8 {
        return Err(EntryReject::Corrupt);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    if fnv1a64(body) != u64::from_le_bytes(stored) {
        return Err(EntryReject::Corrupt);
    }
    let mut d = Decoder::new(body);
    if d.raw(MAGIC.len()).map_err(|_| EntryReject::Corrupt)? != MAGIC {
        return Err(EntryReject::Corrupt);
    }
    if d.u32().map_err(|_| EntryReject::Corrupt)? != STORE_FORMAT_VERSION {
        return Err(EntryReject::Version);
    }
    if d.str().map_err(|_| EntryReject::Corrupt)? != ENGINE_VERSION {
        return Err(EntryReject::Version);
    }
    let echoed = ArtifactKey::decode(&mut d).map_err(|_| EntryReject::Corrupt)?;
    if &echoed != key {
        return Ok(None);
    }
    let analysis = decode_analysis(&mut d).map_err(|_| EntryReject::Corrupt)?;
    if !d.is_exhausted() {
        return Err(EntryReject::Corrupt);
    }
    Ok(Some(analysis))
}

fn encode_analysis(e: &mut Encoder, a: &NestAnalysis) {
    e.str(&a.nest_name);
    e.i64(a.cache.size_bytes());
    e.i64(a.cache.assoc());
    e.i64(a.cache.line_bytes());
    e.i64(a.cache.elem_bytes());
    e.u32(a.per_ref.len() as u32);
    for r in &a.per_ref {
        encode_ref(e, r);
    }
}

fn decode_analysis(d: &mut Decoder<'_>) -> Result<NestAnalysis, CodecError> {
    let nest_name = d.str()?;
    let (size, assoc, line, elem) = (d.i64()?, d.i64()?, d.i64()?, d.i64()?);
    let cache = CacheConfig::new(size, assoc, line, elem).map_err(|_| {
        // An impossible geometry in a checksummed entry is still corrupt
        // as far as the caller is concerned.
        CodecError::BadDiscriminant {
            at: d.position(),
            value: 0,
            what: "cache geometry",
        }
    })?;
    let n = d.len_prefix(1 << 16)?;
    let mut per_ref = Vec::with_capacity(n);
    for _ in 0..n {
        per_ref.push(decode_ref(d)?);
    }
    Ok(NestAnalysis {
        nest_name,
        cache,
        per_ref,
    })
}

fn encode_ref(e: &mut Encoder, r: &RefAnalysis) {
    e.u32(r.dest.index() as u32);
    e.str(&r.label);
    e.u32(r.vectors.len() as u32);
    for v in &r.vectors {
        encode_vector_report(e, v);
    }
    e.u64(r.cold_misses);
    e.u64(r.replacement_misses);
    e.bool(r.early_stopped);
    e.u32(r.replacement_miss_points.len() as u32);
    for (point, vi) in &r.replacement_miss_points {
        e.i64s(point);
        e.u32(*vi as u32);
    }
    e.u32(r.cold_miss_points.len() as u32);
    for point in &r.cold_miss_points {
        e.i64s(point);
    }
}

fn decode_ref(d: &mut Decoder<'_>) -> Result<RefAnalysis, CodecError> {
    let dest = RefId::from_index(d.u32()? as usize);
    let label = d.str()?;
    let nv = d.len_prefix(1 << 20)?;
    let mut vectors = Vec::with_capacity(nv.min(1 << 12));
    for _ in 0..nv {
        vectors.push(decode_vector_report(d)?);
    }
    let cold_misses = d.u64()?;
    let replacement_misses = d.u64()?;
    let early_stopped = d.bool()?;
    let nr = d.len_prefix(cme_ir::codec::MAX_SEQ_LEN)?;
    let mut replacement_miss_points = Vec::with_capacity(nr.min(1 << 16));
    for _ in 0..nr {
        let point = d.i64s()?;
        let vi = d.u32()? as usize;
        replacement_miss_points.push((point, vi));
    }
    let nc = d.len_prefix(cme_ir::codec::MAX_SEQ_LEN)?;
    let mut cold_miss_points = Vec::with_capacity(nc.min(1 << 16));
    for _ in 0..nc {
        cold_miss_points.push(d.i64s()?);
    }
    Ok(RefAnalysis {
        dest,
        label,
        vectors,
        cold_misses,
        replacement_misses,
        early_stopped,
        replacement_miss_points,
        cold_miss_points,
    })
}

fn encode_vector_report(e: &mut Encoder, v: &VectorReport) {
    e.i64s(v.reuse.vector());
    e.u32(v.reuse.source().index() as u32);
    e.u8(match v.reuse.kind() {
        ReuseKind::SelfTemporal => 0,
        ReuseKind::SelfSpatial => 1,
        ReuseKind::GroupTemporal => 2,
        ReuseKind::GroupSpatial => 3,
    });
    e.i64(v.reuse.delta());
    e.u64(v.examined);
    e.u64(v.cold_solutions);
    e.u64(v.replacement_misses);
    e.u64s(&v.contentions_per_perpetrator);
    e.u64(v.cumulative_replacement_misses);
}

fn decode_vector_report(d: &mut Decoder<'_>) -> Result<VectorReport, CodecError> {
    let vector = d.i64s()?;
    let source = RefId::from_index(d.u32()? as usize);
    let at = d.position();
    let kind = match d.u8()? {
        0 => ReuseKind::SelfTemporal,
        1 => ReuseKind::SelfSpatial,
        2 => ReuseKind::GroupTemporal,
        3 => ReuseKind::GroupSpatial,
        value => {
            return Err(CodecError::BadDiscriminant {
                at,
                value,
                what: "reuse kind",
            })
        }
    };
    let delta = d.i64()?;
    Ok(VectorReport {
        reuse: ReuseVector::new(vector, source, kind, delta),
        examined: d.u64()?,
        cold_solutions: d.u64()?,
        replacement_misses: d.u64()?,
        contentions_per_perpetrator: d.u64s()?,
        cumulative_replacement_misses: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Analyzer;
    use cme_ir::{AccessKind, NestBuilder};

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("cme-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    fn sample_analysis() -> NestAnalysis {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 32).ct_loop("j", 1, 32);
        let a = b.array("A", &[32, 32], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        let nest = b.build().unwrap();
        let cfg = CacheConfig::new(1024, 2, 32, 4).unwrap();
        Analyzer::new(cfg).analyze(&nest)
    }

    fn sample_key(salt: u128) -> ArtifactKey {
        let cfg = CacheConfig::new(1024, 2, 32, 4).unwrap();
        ArtifactKey::new(salt, salt ^ 0xff, &cfg, &AnalysisOptions::default())
    }

    #[test]
    fn put_get_round_trips_bit_identically() {
        let store = temp_store("roundtrip");
        let analysis = sample_analysis();
        let key = sample_key(1);
        assert!(store.get(&key).is_none());
        store.put(&key, &analysis);
        let got = store.get(&key).expect("warm read");
        assert_eq!(got, analysis);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_are_evicted_not_trusted() {
        let store = temp_store("corrupt");
        let analysis = sample_analysis();
        let key = sample_key(2);
        store.put(&key, &analysis);
        let path = store.dir().join(key.file_name());
        // Flip a payload byte: the checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(&key).is_none());
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(store.stats().corrupt_evicted, 1);
        // Truncation is likewise corruption.
        store.put(&key, &analysis);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.stats().corrupt_evicted, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn version_skew_is_evicted() {
        let store = temp_store("version");
        let analysis = sample_analysis();
        let key = sample_key(3);
        // Forge an entry with a bumped format version and a valid
        // checksum: well-formed, wrong vintage.
        let mut e = Encoder::new();
        e.raw(MAGIC);
        e.u32(STORE_FORMAT_VERSION + 1);
        e.str(ENGINE_VERSION);
        key.encode(&mut e);
        encode_analysis(&mut e, &analysis);
        let sum = fnv1a64(e.bytes());
        e.u64(sum);
        let path = store.dir().join(key.file_name());
        fs::write(&path, e.into_bytes()).unwrap();
        assert!(store.get(&key).is_none());
        assert!(!path.exists());
        assert_eq!(store.stats().version_evicted, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn filename_collision_misses_without_evicting() {
        let store = temp_store("collision");
        let analysis = sample_analysis();
        let ours = sample_key(4);
        let theirs = sample_key(5);
        // Plant a valid entry for `theirs` under `ours`' file name.
        let mut e = Encoder::new();
        e.raw(MAGIC);
        e.u32(STORE_FORMAT_VERSION);
        e.str(ENGINE_VERSION);
        theirs.encode(&mut e);
        encode_analysis(&mut e, &analysis);
        let sum = fnv1a64(e.bytes());
        e.u64(sum);
        let path = store.dir().join(ours.file_name());
        fs::write(&path, e.into_bytes()).unwrap();
        assert!(store.get(&ours).is_none());
        assert!(path.exists(), "someone else's entry is not ours to evict");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn lru_eviction_bounds_total_size() {
        let dir = std::env::temp_dir().join(format!("cme-store-test-lru-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let analysis = sample_analysis();
        let one = encode_framed(&sample_key(0), &analysis).len() as u64;
        // Room for about three entries.
        let store = ArtifactStore::open_bounded(&dir, one * 3 + one / 2, u64::MAX).unwrap();
        for salt in 0..6u128 {
            store.put(&sample_key(salt), &analysis);
        }
        assert!(store.total_bytes() <= store.max_bytes());
        assert!(store.entry_count() <= 3);
        assert!(store.stats().lru_evicted >= 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_entries_are_skipped() {
        let dir = std::env::temp_dir().join(format!("cme-store-test-big-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::open_bounded(&dir, u64::MAX, 8).unwrap();
        store.put(&sample_key(9), &sample_analysis());
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.stats().skipped_large, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_options_get_distinct_keys() {
        let exact = AnalysisOptions::default();
        let eps = AnalysisOptions::builder().epsilon(100).build();
        assert_ne!(options_fingerprint(&exact), options_fingerprint(&eps));
        // Pinned values: a changed fingerprint would silently cold-miss
        // every entry already persisted.
        assert_eq!(
            options_fingerprint(&exact),
            0x7cf77cfcec730233244d384160935e48
        );
        let counts = AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build();
        assert_eq!(
            options_fingerprint(&counts),
            0xee82955268c69ca5668ac758362f4608
        );
        // Every remaining option lands in the key.
        let mut no_group = AnalysisOptions::default();
        no_group.reuse.group = false;
        let mut no_extended = AnalysisOptions::default();
        no_extended.reuse.extended = false;
        let points = AnalysisOptions::builder().collect_miss_points(true).build();
        for changed in [no_group, no_extended, points] {
            assert_ne!(
                options_fingerprint(&changed),
                options_fingerprint(&exact),
                "{changed:?}"
            );
        }
        let cfg = CacheConfig::new(1024, 2, 32, 4).unwrap();
        let a = ArtifactKey::new(1, 2, &cfg, &exact);
        let b = ArtifactKey::new(1, 2, &cfg, &eps);
        assert_ne!(a.file_name(), b.file_name());
    }

    #[test]
    fn faulted_store_never_serves_wrong_data_and_always_degrades() {
        // Across seeds, a store under aggressive injected I/O faults must
        // behave like a (possibly forgetful) correct store: every `get`
        // either misses or returns the bit-identical artifact, `put`
        // never raises, and torn/corrupt entries are evicted on contact.
        let analysis = sample_analysis();
        for seed in 0..32u64 {
            let dir = std::env::temp_dir().join(format!(
                "cme-store-test-faulted-{seed}-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .read_fault_percent(60)
                    .write_fault_percent(60),
            );
            let store = ArtifactStore::open(&dir)
                .unwrap()
                .with_faults(Arc::clone(&plan));
            for round in 0..6u128 {
                let key = sample_key(round % 2);
                store.put(&key, &analysis);
                if let Some(got) = store.get(&key) {
                    assert_eq!(got, analysis, "seed {seed} round {round}: wrong artifact");
                }
            }
            // Whatever survived on disk must be the exact artifact when
            // read through a clean (fault-free) store handle.
            let clean = ArtifactStore::open(&dir).unwrap();
            for salt in 0..2u128 {
                if let Some(got) = clean.get(&sample_key(salt)) {
                    assert_eq!(got, analysis, "seed {seed}: corrupt entry served");
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_write_lands_corrupt_and_is_evicted_by_the_next_reader() {
        let dir = std::env::temp_dir().join(format!("cme-store-test-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A plan that tears every write (write faults at 100% cycle
        // through the classes; find a seed whose first write is Torn).
        let seed = (0..64)
            .find(|&s| {
                matches!(
                    FaultPlan::new(s)
                        .write_fault_percent(100)
                        .next_write_fault(),
                    Some(crate::faults::WriteFault::Torn)
                )
            })
            .expect("some seed tears first");
        let plan = Arc::new(
            FaultPlan::new(seed)
                .write_fault_percent(100)
                .read_fault_percent(0),
        );
        let store = ArtifactStore::open(&dir).unwrap().with_faults(plan);
        let key = sample_key(1);
        store.put(&key, &sample_analysis());
        let path = store.dir().join(key.file_name());
        assert!(path.exists(), "torn write still renames");
        // The same handle reads with faults off: the checksum catches it.
        assert!(store.get(&key).is_none());
        assert!(!path.exists(), "torn entry must be evicted on contact");
        assert_eq!(store.stats().corrupt_evicted, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_write_strands_a_temp_file_and_preserves_the_live_entry() {
        let dir = std::env::temp_dir().join(format!("cme-store-test-crash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let analysis = sample_analysis();
        let key = sample_key(2);
        // First, a clean write of the live entry.
        let clean = ArtifactStore::open(&dir).unwrap();
        clean.put(&key, &analysis);
        let live = fs::read(clean.dir().join(key.file_name())).unwrap();
        // Then a crash-before-rename overwrite attempt.
        let seed = (0..64)
            .find(|&s| {
                matches!(
                    FaultPlan::new(s)
                        .write_fault_percent(100)
                        .next_write_fault(),
                    Some(crate::faults::WriteFault::CrashBeforeRename)
                )
            })
            .expect("some seed crashes first");
        let plan = Arc::new(
            FaultPlan::new(seed)
                .write_fault_percent(100)
                .read_fault_percent(0),
        );
        let store = ArtifactStore::open(&dir).unwrap().with_faults(plan);
        store.put(&key, &analysis);
        // The live name is byte-identical, the temp file is ignored.
        assert_eq!(fs::read(store.dir().join(key.file_name())).unwrap(), live);
        assert_eq!(store.entry_count(), 1, "temp files are not entries");
        assert_eq!(store.get(&key).unwrap(), analysis);
        let _ = fs::remove_dir_all(&dir);
    }
}
