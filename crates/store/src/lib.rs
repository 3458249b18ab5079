//! `predict_store`: the on-disk, versioned, compressed binary artifact store
//! for PREDIcT stage artifacts.
//!
//! PREDIcT's value proposition is amortization — samples, sample runs and
//! trained models are expensive to produce and cheap to reuse — but without
//! persistence every artifact dies with the process and a restarted
//! [`PredictService`](../predict_core/service/index.html) answers every query
//! cold. This crate is the persistence layer: a directory-backed store that a
//! prediction session writes through on every artifact miss and reads back on
//! restart, pinned by a byte-identity contract (a warm-restarted service
//! returns byte-identical predictions and never re-executes a stored sample
//! run).
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   sample/<fnv64-of-key>.art       one file per artifact, per kind
//!   sample_run/<fnv64-of-key>.art
//!   model/<fnv64-of-key>.art
//!   actual_run/<fnv64-of-key>.art
//!   tmp/                            in-flight writes (cleared on open)
//!   quarantine/                     corrupt files moved aside, never deleted
//! ```
//!
//! # File format
//!
//! Every `.art` file is self-describing (all integers little-endian):
//!
//! ```text
//! magic     "PSTR"                       4 bytes
//! format    u32 = 2                      container layout version
//! mlen      u32                          manifest length in bytes
//! manifest  JSON                         see [`Manifest`]
//! mcheck    u64                          checksum of the manifest bytes
//! tree      lz4_flex block               compressed tree section
//! columns   bytes                        raw column section
//! ```
//!
//! The payload is the [`codec`] encoding of the artifact's serde `Value`:
//! a *tree* section (structure, strings, scalars), which is compressed, and
//! a *column* section (the elements of every packed numeric vector,
//! bit-packed), which is stored as is. The manifest carries the artifact
//! schema version, kind, the full logical key, the dataset provenance hash,
//! and the checksum + lengths of both sections, so every read is verified
//! end-to-end before a single byte reaches a deserializer.
//!
//! There is one reader and one writer, both for the current versions. A
//! file written under another [`FORMAT_VERSION`] or [`SCHEMA_VERSION`] is
//! *stale*, exactly like one written for another dataset.
//!
//! # Atomicity and recovery
//!
//! Writes go to `tmp/<unique>.tmp` and are published with a single
//! [`std::fs::rename`] — readers only ever observe absent or complete files;
//! a crash mid-write leaves garbage in `tmp/` that the next [`open`] sweeps.
//! Reads validate magic, versions, manifest checksum, payload lengths and
//! payload checksum; any mismatch (truncation, flipped bits, a foreign
//! codec) moves the file to `quarantine/` with a [`diag!`] warning and
//! reports a miss, so the caller recomputes and overwrites — the store
//! degrades, it never panics. Stale artifacts (provenance, schema-version
//! or container-format mismatch) are plain misses: they stay in place until
//! the write-through overwrites them.
//!
//! [`open`]: ArtifactStore::open
//! [`diag!`]: predict_obs::diag!

pub mod codec;

pub use codec::{decode_value, encode_value, CodecError, Encoded};

use predict_obs::metrics::{Counter, Histogram};
use predict_obs::{diag, registry, span};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Container layout version (the file framing, not the artifact schema).
pub const FORMAT_VERSION: u32 = 2;

/// Artifact schema version: bump when a field of any artifact is added or
/// changes shape or meaning, so older store directories read as stale misses
/// instead of feeding mismatched fields to a deserializer.
///
/// Dropping a field needs no bump: deserializers look fields up by name and
/// ignore the rest, so an older file that still carries the field decodes to
/// the same value (sample files that carry a graph's in-adjacency read warm
/// this way).
pub const SCHEMA_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"PSTR";

/// Largest manifest the reader will allocate for; real manifests are a few
/// hundred bytes, so anything bigger is a corrupt length word.
const MAX_MANIFEST_LEN: usize = 1 << 20;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The store's checksum: FNV-1a 64-bit taken a word at a time.
///
/// Starting from the FNV offset basis, every full 8-byte little-endian word
/// `w` of the input steps the hash as `h = (h ^ w) * prime`, then each of
/// the up to seven remaining bytes steps it the same way (classic byte-wise
/// FNV-1a). One multiply per 8 bytes instead of per byte; each step is
/// still a bijection of `h` for a fixed input and of the input for a fixed
/// `h`, so two inputs of equal length that differ in one byte always hash
/// differently.
///
/// Several slices can be fed in turn ([`update`](Self::update)); the result
/// depends on where the slices are split, which the store pins through the
/// section lengths in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(FNV_OFFSET_BASIS)
    }
}

impl Checksum {
    /// Steps the hash over one 8-byte word.
    pub fn update_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Steps the hash over `bytes`: full words first, then the tail bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            self.update_word(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in tail {
            self.update_word(b.into());
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// [`Checksum`] of one byte slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::default();
    sum.update(bytes);
    sum.finish()
}

/// Byte-wise FNV-1a of a key, naming its file. Not [`checksum`]: file names
/// are the one part of the layout that stays fixed across format versions,
/// so that a stale file is found — and overwritten — under the name the
/// current writer publishes to.
fn key_hash(key: &str) -> u64 {
    key.bytes().fold(FNV_OFFSET_BASIS, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The four kinds of artifact a prediction session persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A sampled subgraph (`SampleArtifact`).
    Sample,
    /// A transformed sample-run profile (`SampleRunArtifact`).
    SampleRun,
    /// A trained cost model (`TrainedModel`).
    Model,
    /// A full-dataset actual run (`WorkloadRun`), cached for evaluation.
    ActualRun,
}

impl ArtifactKind {
    /// Every kind, for sweeps in tests and tooling.
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Sample,
        ArtifactKind::SampleRun,
        ArtifactKind::Model,
        ArtifactKind::ActualRun,
    ];

    /// Stable directory / manifest name for this kind.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Sample => "sample",
            ArtifactKind::SampleRun => "sample_run",
            ArtifactKind::Model => "model",
            ArtifactKind::ActualRun => "actual_run",
        }
    }
}

/// The self-describing header persisted in front of every payload.
///
/// Field semantics are part of the on-disk contract documented in
/// `docs/ARCHITECTURE.md`; extend it only alongside a [`SCHEMA_VERSION`]
/// bump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Artifact schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// [`ArtifactKind::name`] of the stored artifact.
    pub kind: String,
    /// Full logical key (not just its hash), so filename collisions read as
    /// misses instead of wrong artifacts.
    pub key: String,
    /// Provenance hash binding the artifact to the dataset (label + graph
    /// shape) it was computed from; a mismatch is a stale miss.
    pub provenance: u64,
    /// [`Checksum`] of the *uncompressed* tree section, then the column
    /// section.
    pub payload_checksum: u64,
    /// Length of the compressed tree section that follows the header.
    pub compressed_len: u64,
    /// Expected length of the tree section after decompression.
    pub uncompressed_len: u64,
    /// Length of the raw column section that ends the file.
    pub columns_len: u64,
}

/// Why a [`ArtifactStore::get`] returned nothing; [`ArtifactStore::get_explained`]
/// surfaces this for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissReason {
    /// No file for this key.
    Absent,
    /// File existed but failed validation and was quarantined.
    Quarantined,
    /// File was written under a different container format version, or its
    /// manifest was readable but belongs to a different provenance, schema
    /// version, or (filename-collision case) a different full key.
    Stale,
}

/// Counters the store publishes into the process-global metrics registry.
struct StoreMetrics {
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    hits: Arc<Counter>,
    bytes: Arc<Counter>,
    quarantined: Arc<Counter>,
    /// Uncompressed payload size (tree + columns) of every `put`.
    payload_bytes: Arc<Histogram>,
}

impl StoreMetrics {
    fn new() -> Self {
        let reg = registry();
        StoreMetrics {
            reads: reg.counter("store.reads"),
            writes: reg.counter("store.writes"),
            hits: reg.counter("store.hits"),
            bytes: reg.counter("store.bytes"),
            quarantined: reg.counter("store.quarantined"),
            // 64 B .. 512 MiB in powers of two.
            payload_bytes: reg.histogram_with("store.payload_bytes", || {
                Histogram::exponential_edges(64, 2, 24)
            }),
        }
    }
}

/// A directory-backed, checksummed, compressed artifact store.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every session.
/// All methods take `&self`; concurrent writers of the *same* key both
/// publish complete files and the last rename wins, which is safe because
/// artifacts are deterministic functions of their key + provenance.
pub struct ArtifactStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root` and sweeps any
    /// in-flight temp files a crashed writer left behind.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        for kind in ArtifactKind::ALL {
            fs::create_dir_all(root.join(kind.name()))?;
        }
        fs::create_dir_all(root.join("quarantine"))?;
        let tmp = root.join("tmp");
        fs::create_dir_all(&tmp)?;
        // A crash mid-write leaves only unpublished `.tmp` garbage; sweeping
        // it here is the whole recovery story for partial writes.
        if let Ok(entries) = fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(ArtifactStore {
            root,
            tmp_counter: AtomicU64::new(0),
            metrics: StoreMetrics::new(),
        })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where corrupt files are moved; exposed for tests and operators.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The path `put` publishes to for `(kind, key)` — exposed so tests and
    /// the CI corruption step can target a specific artifact file.
    pub fn artifact_path(&self, kind: ArtifactKind, key: &str) -> PathBuf {
        self.root
            .join(kind.name())
            .join(format!("{:016x}.art", key_hash(key)))
    }

    /// Number of quarantined files currently parked under `quarantine/`.
    pub fn quarantined_files(&self) -> usize {
        fs::read_dir(self.quarantine_dir())
            .map(|d| d.flatten().count())
            .unwrap_or(0)
    }

    /// Number of published artifacts of `kind`.
    pub fn artifact_count(&self, kind: ArtifactKind) -> usize {
        fs::read_dir(self.root.join(kind.name()))
            .map(|d| d.flatten().count())
            .unwrap_or(0)
    }

    /// Serializes, compresses and atomically publishes one artifact.
    ///
    /// The payload is the binary encoding ([`codec`]) of `value`'s serde
    /// `Value` tree: its tree section compressed with the vendored
    /// `lz4_flex` block codec, its column section as is.
    /// Publication is write-to-temp + rename, so readers never observe a
    /// partial file. Errors are returned (not panicked) so callers can
    /// degrade to memory-only operation.
    pub fn put<T: Serialize + ?Sized>(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
        value: &T,
    ) -> io::Result<()> {
        let _span = span("store.write");
        let payload = {
            let _span = span("store.encode");
            encode_value(&value.serialize_value())
        };
        let compressed = {
            let _span = span("store.compress");
            lz4_flex::compress_prepend_size(&payload.tree)
        };
        self.metrics
            .payload_bytes
            .record((payload.tree.len() + payload.columns.len()) as u64);

        let mut payload_checksum = Checksum::default();
        payload_checksum.update(&payload.tree);
        payload_checksum.update(&payload.columns);
        let manifest = Manifest {
            schema_version: SCHEMA_VERSION,
            kind: kind.name().to_string(),
            key: key.to_string(),
            provenance,
            payload_checksum: payload_checksum.finish(),
            compressed_len: compressed.len() as u64,
            uncompressed_len: payload.tree.len() as u64,
            columns_len: payload.columns.len() as u64,
        };
        let manifest_json = serde_json::to_string(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let manifest_bytes = manifest_json.as_bytes();

        let mut file_bytes = Vec::with_capacity(
            4 + 4 + 4 + manifest_bytes.len() + 8 + compressed.len() + payload.columns.len(),
        );
        file_bytes.extend_from_slice(&MAGIC);
        file_bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file_bytes.extend_from_slice(&(manifest_bytes.len() as u32).to_le_bytes());
        file_bytes.extend_from_slice(manifest_bytes);
        file_bytes.extend_from_slice(&checksum(manifest_bytes).to_le_bytes());
        file_bytes.extend_from_slice(&compressed);
        file_bytes.extend_from_slice(&payload.columns);

        let _publish = span("store.publish");
        // Unique within the process via the counter, across processes via
        // the pid; collisions would only race identical content anyway.
        let tmp_name = format!(
            "{:016x}-{}-{}.tmp",
            key_hash(key),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        );
        let tmp_path = self.root.join("tmp").join(tmp_name);
        {
            let mut file = fs::File::create(&tmp_path)?;
            file.write_all(&file_bytes)?;
            file.sync_all()?;
        }
        let final_path = self.artifact_path(kind, key);
        fs::rename(&tmp_path, &final_path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp_path);
        })?;

        self.metrics.writes.incr();
        self.metrics.bytes.add(file_bytes.len() as u64);
        Ok(())
    }

    /// Reads one artifact back as a serde `Value` tree, or `None` on miss.
    ///
    /// Every validation failure (bad magic, truncated header, manifest or
    /// payload checksum mismatch, undecodable payload) quarantines the file
    /// and reports a miss; stale provenance/schema and filename-collision
    /// key mismatches report a miss and leave the file for the write-through
    /// to overwrite.
    pub fn get(&self, kind: ArtifactKind, key: &str, provenance: u64) -> Option<Value> {
        self.get_explained(kind, key, provenance).0
    }

    /// [`get`](Self::get), also reporting why a lookup missed.
    pub fn get_explained(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> (Option<Value>, Option<MissReason>) {
        let _span = span("store.read");
        self.metrics.reads.incr();
        let path = self.artifact_path(kind, key);
        let mut bytes = Vec::new();
        match fs::File::open(&path) {
            Ok(mut file) => {
                if file.read_to_end(&mut bytes).is_err() {
                    self.quarantine(&path, "unreadable file");
                    return (None, Some(MissReason::Quarantined));
                }
            }
            Err(_) => return (None, Some(MissReason::Absent)),
        }

        match self.parse_file(&bytes, kind, key, provenance) {
            Ok(ParseOutcome::Hit(value)) => {
                self.metrics.hits.incr();
                (Some(value), None)
            }
            Ok(ParseOutcome::Stale) => (None, Some(MissReason::Stale)),
            Err(reason) => {
                self.quarantine(&path, reason);
                (None, Some(MissReason::Quarantined))
            }
        }
    }

    /// Typed convenience over [`get`](Self::get): decodes the `Value` tree
    /// through the artifact's `Deserialize` impl. A tree that no longer
    /// matches the Rust shape (schema drift without a version bump) reads as
    /// a miss with a warning rather than an error.
    pub fn get_typed<T: Deserialize>(
        &self,
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> Option<T> {
        let value = self.get(kind, key, provenance)?;
        match T::deserialize_value(&value) {
            Ok(artifact) => Some(artifact),
            Err(err) => {
                diag!(
                    Warn,
                    "store: {} artifact for key `{}` failed typed decode ({}); recomputing",
                    kind.name(),
                    key,
                    err
                );
                None
            }
        }
    }

    fn parse_file(
        &self,
        bytes: &[u8],
        kind: ArtifactKind,
        key: &str,
        provenance: u64,
    ) -> Result<ParseOutcome, &'static str> {
        if bytes.len() < 12 {
            return Err("file shorter than header");
        }
        if bytes[0..4] != MAGIC {
            return Err("bad magic");
        }
        // A sound file of another era, not a damaged one: there is no reader
        // for its layout, so it is stale and the next `put` replaces it.
        let format = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if format != FORMAT_VERSION {
            return Ok(ParseOutcome::Stale);
        }
        let mlen = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        if mlen > MAX_MANIFEST_LEN {
            return Err("manifest length implausibly large");
        }
        let manifest_end = 12usize
            .checked_add(mlen)
            .ok_or("manifest length overflow")?;
        let check_end = manifest_end
            .checked_add(8)
            .ok_or("manifest length overflow")?;
        if check_end > bytes.len() {
            return Err("truncated manifest");
        }
        let manifest_bytes = &bytes[12..manifest_end];
        let stored_check = u64::from_le_bytes(bytes[manifest_end..check_end].try_into().unwrap());
        if checksum(manifest_bytes) != stored_check {
            return Err("manifest checksum mismatch");
        }
        let manifest_json =
            std::str::from_utf8(manifest_bytes).map_err(|_| "manifest not UTF-8")?;
        let manifest: Manifest =
            serde_json::from_str(manifest_json).map_err(|_| "manifest not parseable")?;

        // Staleness checks come after integrity checks: the file is sound,
        // it just is not the artifact the caller wants.
        if manifest.schema_version != SCHEMA_VERSION
            || manifest.kind != kind.name()
            || manifest.key != key
            || manifest.provenance != provenance
        {
            return Ok(ParseOutcome::Stale);
        }

        let sections = &bytes[check_end..];
        if manifest.compressed_len.checked_add(manifest.columns_len) != Some(sections.len() as u64)
        {
            return Err("payload length mismatch (truncated write)");
        }
        // In range: the sum just matched `sections.len()`.
        let (compressed, columns) = sections.split_at(manifest.compressed_len as usize);
        // The block's own size prefix sizes the decompressor's allocation
        // (and is the length it insists on producing); hold it to the
        // checksummed manifest before trusting it.
        let size_prefix = compressed
            .get(..4)
            .map(|p| u32::from_le_bytes(p.try_into().expect("4-byte slice")));
        if size_prefix.map(u64::from) != Some(manifest.uncompressed_len) {
            return Err("decompressed length mismatch");
        }
        let tree = {
            let _span = span("store.decompress");
            lz4_flex::decompress_size_prepended(compressed)
                .map_err(|_| "payload decompression failed")?
        };
        let mut payload_checksum = Checksum::default();
        payload_checksum.update(&tree);
        payload_checksum.update(columns);
        if payload_checksum.finish() != manifest.payload_checksum {
            return Err("payload checksum mismatch");
        }
        let _span = span("store.decode");
        let value = decode_value(&tree, columns).map_err(|_| "payload decode failed")?;
        Ok(ParseOutcome::Hit(value))
    }

    fn quarantine(&self, path: &Path, reason: &str) {
        self.metrics.quarantined.incr();
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unknown.art");
        // Suffix with a counter so repeated corruption of the same key never
        // silently overwrites earlier evidence.
        let dest = self.quarantine_dir().join(format!(
            "{}.{}.quarantined",
            file_name,
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let moved = fs::rename(path, &dest).is_ok();
        if !moved {
            // Cross-device or permission failure: fall back to deletion so a
            // poisoned file cannot wedge every future read of this key.
            let _ = fs::remove_file(path);
        }
        diag!(
            Warn,
            "store: quarantined corrupt artifact {} ({reason}); will recompute",
            path.display()
        );
    }
}

enum ParseOutcome {
    Hit(Value),
    Stale,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Fresh per-test directory under the target tmpdir; best-effort cleanup
    /// on drop.
    struct TempStoreDir(PathBuf);

    impl TempStoreDir {
        fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "predict_store_test_{}_{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&path).unwrap();
            TempStoreDir(path)
        }
    }

    impl Drop for TempStoreDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn tree() -> Value {
        Value::Map(vec![
            ("iterations".to_string(), Value::UInt(17)),
            ("threshold".to_string(), Value::Float(0.000123)),
            (
                "profile".to_string(),
                Value::Seq(vec![Value::Float(1.5), Value::Float(2.5), Value::Null]),
            ),
            (
                "targets".to_string(),
                Value::Packed(serde::Packed::U32((0..40).map(|i| i * 13 % 97).collect())),
            ),
            (
                "times_ms".to_string(),
                Value::Packed(serde::Packed::F64(vec![0.25, 1e-9, 7.0])),
            ),
        ])
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store
            .put(ArtifactKind::Model, "model-key", 42, &tree())
            .unwrap();
        assert_eq!(
            store.get(ArtifactKind::Model, "model-key", 42),
            Some(tree())
        );
        assert_eq!(store.artifact_count(ArtifactKind::Model), 1);
    }

    #[test]
    fn absent_is_a_plain_miss() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        let (value, reason) = store.get_explained(ArtifactKind::Sample, "nope", 0);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Absent));
        assert_eq!(store.quarantined_files(), 0);
    }

    #[test]
    fn provenance_mismatch_is_stale_not_quarantined() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Sample, "k", 1, &tree()).unwrap();
        let (value, reason) = store.get_explained(ArtifactKind::Sample, "k", 2);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Stale));
        assert_eq!(store.quarantined_files(), 0);
        // The artifact is still present and readable under its own provenance.
        assert!(store.get(ArtifactKind::Sample, "k", 1).is_some());
    }

    #[test]
    fn foreign_format_version_is_stale_not_quarantined() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        let path = store.artifact_path(ArtifactKind::Sample, "old");
        for foreign in [1u32, FORMAT_VERSION + 1] {
            // A v1 file as PR 9 wrote it: same magic, `format = 1`, then a
            // manifest and payload this reader has no parser for.
            let mut file = Vec::new();
            file.extend_from_slice(&MAGIC);
            file.extend_from_slice(&foreign.to_le_bytes());
            let manifest = br#"{"schema_version":1,"kind":"sample","key":"old"}"#;
            file.extend_from_slice(&(manifest.len() as u32).to_le_bytes());
            file.extend_from_slice(manifest);
            file.extend_from_slice(&[0xAB; 40]);
            fs::write(&path, &file).unwrap();

            let (value, reason) = store.get_explained(ArtifactKind::Sample, "old", 1);
            assert!(value.is_none());
            assert_eq!(reason, Some(MissReason::Stale));
            assert!(path.exists(), "a stale file stays until overwritten");
            assert_eq!(store.quarantined_files(), 0);

            // The write-through overwrites it in place.
            store.put(ArtifactKind::Sample, "old", 1, &tree()).unwrap();
            assert_eq!(store.get(ArtifactKind::Sample, "old", 1), Some(tree()));
        }
    }

    #[test]
    fn older_schema_version_is_stale_not_quarantined() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Model, "m", 4, &tree()).unwrap();
        let path = store.artifact_path(ArtifactKind::Model, "m");
        // Rewrite the manifest in place with the previous schema version and
        // a matching manifest checksum: a sound file of an older schema.
        let bytes = fs::read(&path).unwrap();
        let mlen = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let manifest = std::str::from_utf8(&bytes[12..12 + mlen]).unwrap();
        let older = manifest.replace(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            &format!("\"schema_version\":{}", SCHEMA_VERSION - 1),
        );
        assert_eq!(older.len(), mlen, "single-digit versions keep the length");
        let mut file = bytes[..12].to_vec();
        file.extend_from_slice(older.as_bytes());
        file.extend_from_slice(&checksum(older.as_bytes()).to_le_bytes());
        file.extend_from_slice(&bytes[12 + mlen + 8..]);
        fs::write(&path, &file).unwrap();

        let (value, reason) = store.get_explained(ArtifactKind::Model, "m", 4);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Stale));
        assert!(path.exists());
        assert_eq!(store.quarantined_files(), 0);
    }

    #[test]
    fn truncated_file_quarantines_and_recovers() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store
            .put(ArtifactKind::SampleRun, "run", 7, &tree())
            .unwrap();
        let path = store.artifact_path(ArtifactKind::SampleRun, "run");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (value, reason) = store.get_explained(ArtifactKind::SampleRun, "run", 7);
        assert!(value.is_none());
        assert_eq!(reason, Some(MissReason::Quarantined));
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert_eq!(store.quarantined_files(), 1);

        // Recompute-and-overwrite restores service.
        store
            .put(ArtifactKind::SampleRun, "run", 7, &tree())
            .unwrap();
        assert_eq!(store.get(ArtifactKind::SampleRun, "run", 7), Some(tree()));
    }

    #[test]
    fn every_single_byte_flip_degrades_cleanly() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Model, "flip", 3, &tree()).unwrap();
        let path = store.artifact_path(ArtifactKind::Model, "flip");
        let original = fs::read(&path).unwrap();
        // The file ends with the raw column section.
        let columns_len = encode_value(&tree()).columns.len();
        assert!(columns_len > 0 && columns_len < original.len());
        for i in 0..original.len() {
            let mut corrupt = original.clone();
            corrupt[i] ^= 0x20;
            fs::write(&path, &corrupt).unwrap();
            // Must not panic; must never return a value different from the
            // original tree (a flip that survives all checksums could only
            // be inside JSON whitespace, which FNV catches anyway).
            let read = store.get(ArtifactKind::Model, "flip", 3);
            if let Some(v) = &read {
                assert_eq!(*v, tree(), "flip at byte {i} silently altered the artifact");
            }
            // Column bytes are never decompressed, so nothing but the
            // payload checksum stands between a flipped bit and a wrong
            // (but well-formed) element: it must catch every one.
            if i >= original.len() - columns_len {
                assert!(read.is_none(), "flip in column byte {i} went unnoticed");
            }
        }
        // Restore for hygiene.
        fs::write(&path, &original).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = TempStoreDir::new();
        {
            let store = ArtifactStore::open(&dir.0).unwrap();
            store.put(ArtifactKind::Sample, "keep", 1, &tree()).unwrap();
        }
        // Simulate a crash mid-write: garbage left in tmp/.
        fs::write(dir.0.join("tmp").join("dead.tmp"), b"partial").unwrap();
        let store = ArtifactStore::open(&dir.0).unwrap();
        assert_eq!(fs::read_dir(dir.0.join("tmp")).unwrap().count(), 0);
        // Published artifacts survive the sweep.
        assert!(store.get(ArtifactKind::Sample, "keep", 1).is_some());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let dir = TempStoreDir::new();
        let store = ArtifactStore::open(&dir.0).unwrap();
        for i in 0..20u64 {
            let key = format!("key-{i}");
            store
                .put(ArtifactKind::Model, &key, 9, &Value::UInt(i))
                .unwrap();
        }
        for i in 0..20u64 {
            let key = format!("key-{i}");
            assert_eq!(
                store.get(ArtifactKind::Model, &key, 9),
                Some(Value::UInt(i))
            );
        }
    }

    #[test]
    fn concurrent_writers_and_readers_settle() {
        let dir = TempStoreDir::new();
        let store = std::sync::Arc::new(ArtifactStore::open(&dir.0).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let key = format!("k-{}", (t * 25 + i) % 10);
                        store
                            .put(ArtifactKind::ActualRun, &key, 5, &Value::UInt(i))
                            .unwrap();
                        let _ = store.get(ArtifactKind::ActualRun, &key, 5);
                    }
                });
            }
        });
        // All ten keys readable, none quarantined: partial files are never
        // observable.
        for k in 0..10 {
            assert!(store
                .get(ArtifactKind::ActualRun, &format!("k-{k}"), 5)
                .is_some());
        }
        assert_eq!(store.quarantined_files(), 0);
    }
}
