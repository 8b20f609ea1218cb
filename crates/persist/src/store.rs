//! Crash-consistent **model store**: transactional promotion, startup
//! recovery, one-call rollback, and an `fsck`-style verifier over a
//! watch directory.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   gen-000001.mfod     snapshot files, one per promoted generation
//!   gen-000002.mfod     (zero-padded so lexicographic == numeric order)
//!   ...
//!   store.manifest      catalog checkpoint (MFOD container, KIND 6)
//!   deploy.log          append-only deployment log (source of truth)
//!   quarantine/         torn/uncommitted artifacts, moved, never deleted
//! ```
//!
//! The metadata files deliberately avoid the `.mfod` extension, so
//! recovery's directory sweep and fsck never take them for snapshots.
//! A [`ModelRegistry`] follows the store through the log alone
//! ([`ModelRegistry::sync_store`]), never by listing the directory.
//!
//! ## Durability contract
//!
//! [`ModelStore::promote_bytes`] runs the four-step protocol:
//!
//! 1. **write snapshot** — [`crate::format::save_bytes`]: unique temp,
//!    fsync(file), rename, fsync(dir). A kill before this returns leaves
//!    at worst a stray temp (quarantined on recovery).
//! 2. **append intent** — [`crate::wal::append_record`] + fsync. A kill
//!    here leaves a durable snapshot with no intent → orphan,
//!    quarantined.
//! 3. **append commit** — the generation becomes the committed truth
//!    the moment this record's fsync returns. A kill between intent and
//!    commit leaves an uncommitted intent → snapshot quarantined.
//! 4. **checkpoint manifest** — rewrite `store.manifest` atomically.
//!    A kill here loses nothing: recovery rebuilds the checkpoint from
//!    the log.
//!
//! [`ModelStore::open`] replays the log, quarantines every torn log
//! tail, stray temp, orphan and uncommitted snapshot (moved into
//! `quarantine/`, never deleted), validates the active generation's
//! bytes hash-first, falls back down the committed chain when the
//! active artifact is damaged, and rewrites the checkpoint. Recovery is
//! idempotent: opening twice yields the same state as opening once.

use crate::error::PersistError;
use crate::format::{save, to_bytes, Snapshot, SnapshotReader, SNAPSHOT_EXT, TMP_INFIX};
use crate::hash::fnv1a64;
use crate::manifest::{Manifest, ManifestEntry};
use crate::registry::{ModelRegistry, Restorable};
use crate::wal::{append_record, replay, LogRecord};
use crate::Result;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the manifest checkpoint (not `.mfod`, so recovery's
/// directory sweep skips it).
pub const MANIFEST_FILE: &str = "store.manifest";
/// File name of the append-only deployment log.
pub const DEPLOY_LOG_FILE: &str = "deploy.log";
/// Subdirectory quarantined artifacts are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Snapshot file name for a generation: zero-padded so lexicographic
/// order is numeric order.
pub fn generation_file(generation: u64) -> String {
    format!("gen-{generation:06}.{SNAPSHOT_EXT}")
}

/// Why an artifact was moved to `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Snapshot had a logged intent but no commit marker.
    UncommittedIntent,
    /// Snapshot file with no intent in the log at all.
    Orphan,
    /// A crashed writer's temp file.
    StrayTemp,
    /// Committed snapshot whose bytes no longer match the manifest
    /// (hash/length mismatch or unreadable container).
    Damaged(String),
    /// Bytes past the last valid deployment-log record.
    TornLogTail(String),
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::UncommittedIntent => write!(f, "uncommitted intent"),
            QuarantineReason::Orphan => write!(f, "orphan snapshot (no intent)"),
            QuarantineReason::StrayTemp => write!(f, "stray writer temp"),
            QuarantineReason::Damaged(why) => write!(f, "damaged committed snapshot: {why}"),
            QuarantineReason::TornLogTail(why) => write!(f, "torn deploy-log tail: {why}"),
        }
    }
}

/// What [`ModelStore::open`] found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Valid deployment-log records replayed.
    pub replayed_records: usize,
    /// Committed generations whose snapshot survived validation.
    pub committed: Vec<u64>,
    /// The generation now active, if any survived.
    pub active: Option<u64>,
    /// Artifacts moved into `quarantine/`, with why.
    pub quarantined: Vec<(PathBuf, QuarantineReason)>,
    /// Whether a torn log tail was copied aside and truncated.
    pub torn_log_tail: bool,
    /// Whether the active generation had to fall back past a damaged
    /// snapshot to an older committed one.
    pub fell_back: bool,
}

/// One problem found by [`ModelStore::fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A manifest entry's file is missing from the directory.
    MissingFile {
        /// The committed generation affected.
        generation: u64,
        /// The file the manifest expected.
        file: String,
    },
    /// A file's bytes hash to something other than the manifest says.
    HashMismatch {
        /// The generation affected.
        generation: u64,
        /// The file checked.
        file: String,
        /// Hash recorded at promotion.
        expected: u64,
        /// Hash of the bytes on disk now.
        actual: u64,
    },
    /// A file's length differs from the manifest record.
    LengthMismatch {
        /// The generation affected.
        generation: u64,
        /// The file checked.
        file: String,
        /// Length recorded at promotion.
        expected: u64,
        /// Length on disk now.
        actual: u64,
    },
    /// A file no longer parses as an MFOD container.
    BadContainer {
        /// The file checked.
        file: String,
        /// The typed parse error, stringified.
        error: String,
    },
    /// A `.mfod` file in the directory that no manifest entry names.
    Orphan {
        /// The unexpected file.
        file: String,
    },
    /// A crashed writer's temp file.
    StrayTemp {
        /// The temp file found.
        file: String,
    },
    /// The log holds an intent with no matching commit.
    UncommittedIntent {
        /// The intended-but-never-committed generation.
        generation: u64,
    },
    /// Bytes past the last valid deployment-log record.
    TornLogTail {
        /// Offset where the valid prefix ends.
        offset: u64,
        /// What failed to parse.
        reason: String,
    },
    /// The manifest checkpoint disagrees with the log-derived state.
    ManifestMismatch {
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// The manifest's active generation has no usable snapshot.
    ActiveMissing {
        /// The active generation with no valid bytes behind it.
        generation: u64,
    },
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckIssue::MissingFile { generation, file } => {
                write!(f, "generation {generation}: file {file} missing")
            }
            FsckIssue::HashMismatch {
                generation,
                file,
                expected,
                actual,
            } => write!(
                f,
                "generation {generation}: {file} hash {actual:#018X}, manifest says {expected:#018X}"
            ),
            FsckIssue::LengthMismatch {
                generation,
                file,
                expected,
                actual,
            } => write!(
                f,
                "generation {generation}: {file} is {actual} bytes, manifest says {expected}"
            ),
            FsckIssue::BadContainer { file, error } => {
                write!(f, "{file}: container invalid: {error}")
            }
            FsckIssue::Orphan { file } => write!(f, "{file}: no manifest entry"),
            FsckIssue::StrayTemp { file } => write!(f, "{file}: stray writer temp"),
            FsckIssue::UncommittedIntent { generation } => {
                write!(f, "generation {generation}: intent without commit")
            }
            FsckIssue::TornLogTail { offset, reason } => {
                write!(f, "deploy log torn at offset {offset}: {reason}")
            }
            FsckIssue::ManifestMismatch { detail } => {
                write!(f, "manifest checkpoint diverges from log: {detail}")
            }
            FsckIssue::ActiveMissing { generation } => {
                write!(f, "active generation {generation} has no valid snapshot")
            }
        }
    }
}

/// Outcome of an [`ModelStore::fsck`] walk.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Generations whose file, length, hash and container all check out.
    pub clean: Vec<u64>,
    /// Every problem found, in walk order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// No issues at all?
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Log-derived deployment state: the durable truth after a replay.
#[derive(Debug, Default)]
struct LogState {
    /// Every logged intent by generation.
    intents: BTreeMap<u64, ManifestEntry>,
    /// Generations with a commit marker, in commit order.
    committed: Vec<u64>,
    /// Active generation after the final commit/rollback record.
    active: Option<u64>,
}

fn derive_state(records: &[LogRecord]) -> LogState {
    let mut state = LogState::default();
    for record in records {
        match record {
            LogRecord::Intent(entry) => {
                state.intents.insert(entry.generation, entry.clone());
            }
            LogRecord::Commit { generation } => {
                if !state.committed.contains(generation) {
                    state.committed.push(*generation);
                }
                state.active = Some(*generation);
            }
            LogRecord::Rollback { to, .. } => {
                // generation 0 is the "nothing left to serve" sentinel
                // written when recovery finds no valid fallback
                state.active = (*to != 0).then_some(*to);
            }
        }
    }
    state
}

/// A crash-consistent model store over one directory.
///
/// All mutation goes through the deployment log first, so any SIGKILL
/// leaves a state [`ModelStore::open`] recovers from; see the module
/// docs for the step-by-step contract.
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl ModelStore {
    /// Opens (and if necessary recovers) the store at `dir`, creating
    /// the directory if missing. Never deletes data: suspect artifacts
    /// move to `quarantine/`, torn log tails are copied there before
    /// the log is truncated.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(ModelStore, RecoveryReport)> {
        let dir = dir.into();
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |source| PersistError::Io {
                path: path.clone(),
                source,
            }
        };
        std::fs::create_dir_all(&dir).map_err(io(&dir))?;
        let mut report = RecoveryReport::default();

        // 1. Replay the log; quarantine + truncate any torn tail.
        let log_path = dir.join(DEPLOY_LOG_FILE);
        let mut rep = replay(&log_path)?;
        if let Some(torn) = rep.torn.take() {
            let bytes = std::fs::read(&log_path).map_err(io(&log_path))?;
            let qdir = dir.join(QUARANTINE_DIR);
            std::fs::create_dir_all(&qdir).map_err(io(&qdir))?;
            let tail_name = format!("deploy.log.tail-{}", torn.offset);
            let tail_path = qdir.join(&tail_name);
            std::fs::write(&tail_path, &bytes[torn.offset as usize..]).map_err(io(&tail_path))?;
            let keep = &bytes[..torn.offset as usize];
            std::fs::write(&log_path, keep).map_err(io(&log_path))?;
            std::fs::File::open(&log_path)
                .and_then(|f| f.sync_all())
                .map_err(io(&log_path))?;
            report.torn_log_tail = true;
            report
                .quarantined
                .push((tail_path, QuarantineReason::TornLogTail(torn.reason)));
        }
        report.replayed_records = rep.records.len();
        let state = derive_state(&rep.records);

        // 2. Sweep the directory: quarantine stray temps, orphans and
        //    uncommitted snapshots. Committed files stay for validation.
        let committed: Vec<u64> = state.committed.clone();
        let committed_files: Vec<String> = committed
            .iter()
            .filter_map(|g| state.intents.get(g).map(|e| e.file.clone()))
            .collect();
        let entries = std::fs::read_dir(&dir).map_err(io(&dir))?;
        let quarantine = |path: &Path, reason: QuarantineReason, rpt: &mut RecoveryReport| {
            let qdir = dir.join(QUARANTINE_DIR);
            if let Err(e) = std::fs::create_dir_all(&qdir) {
                return Err(PersistError::Io {
                    path: qdir,
                    source: e,
                });
            }
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            // never overwrite earlier quarantined evidence
            let mut dest = qdir.join(&name);
            let mut bump = 0u32;
            while dest.exists() {
                bump += 1;
                dest = qdir.join(format!("{name}.{bump}"));
            }
            std::fs::rename(path, &dest).map_err(io(path))?;
            if let Some(m) = mfod_obs::active() {
                m.store_quarantined.add(1);
                mfod_obs::journal::instant("store.quarantine");
            }
            rpt.quarantined.push((dest, reason));
            Ok(())
        };
        for entry in entries {
            let entry = entry.map_err(io(&dir))?;
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(TMP_INFIX) {
                quarantine(&path, QuarantineReason::StrayTemp, &mut report)?;
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
                continue; // store.manifest, deploy.log, unrelated files
            }
            if committed_files.contains(&name) {
                continue;
            }
            let intended = state.intents.values().any(|e| e.file == name);
            let reason = if intended {
                QuarantineReason::UncommittedIntent
            } else {
                QuarantineReason::Orphan
            };
            quarantine(&path, reason, &mut report)?;
        }

        // 3. Validate committed snapshots hash-first; quarantine damage
        //    and walk the active pointer back down the committed chain.
        let mut valid: Vec<u64> = Vec::new();
        for &generation in &committed {
            let Some(entry) = state.intents.get(&generation) else {
                continue; // commit without intent: nothing to validate
            };
            let path = dir.join(&entry.file);
            match validate_entry_bytes(&path, entry) {
                Ok(()) => valid.push(generation),
                Err(why) => {
                    if path.exists() {
                        quarantine(&path, QuarantineReason::Damaged(why), &mut report)?;
                    }
                }
            }
        }
        let mut active = state.active.filter(|g| valid.contains(g));
        if active.is_none() && state.active.is_some() {
            // fall back to the newest valid committed generation, and
            // record the re-point in the log so the log-derived active
            // matches what this recovery decided (0 = nothing left)
            active = valid.iter().copied().max();
            report.fell_back = true;
            append_record(
                &log_path,
                &LogRecord::Rollback {
                    from: state.active.unwrap_or(0),
                    to: active.unwrap_or(0),
                },
            )?;
        }

        // 4. Rebuild the in-memory manifest from the log-derived state
        //    and checkpoint it durably.
        let mut manifest = Manifest::new();
        for &generation in &valid {
            if let Some(entry) = state.intents.get(&generation) {
                manifest.upsert(entry.clone());
            }
        }
        manifest.active = active;
        let store = ModelStore { dir, manifest };
        store.checkpoint()?;
        report.committed = valid;
        report.active = active;
        if let Some(m) = mfod_obs::active() {
            m.store_recoveries.add(1);
            mfod_obs::journal::instant("store.recover");
        }
        Ok((store, report))
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live catalog (checkpointed to `store.manifest`).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The active committed generation, if any.
    pub fn active_generation(&self) -> Option<u64> {
        self.manifest.active
    }

    /// Absolute path of a generation's snapshot file, if cataloged.
    pub fn generation_path(&self, generation: u64) -> Option<PathBuf> {
        self.manifest
            .entry(generation)
            .map(|e| self.dir.join(&e.file))
    }

    /// Atomically rewrites the manifest checkpoint.
    fn checkpoint(&self) -> Result<()> {
        save(&self.manifest, &self.dir.join(MANIFEST_FILE))
    }

    /// Promotes already-encoded snapshot bytes as the next generation:
    /// write-snapshot → fsync(file+dir) → append intent → commit marker
    /// → checkpoint. Returns the catalog entry on success. On any error
    /// the store's committed truth is unchanged — a later
    /// [`ModelStore::open`] quarantines whatever half-promotion is on
    /// disk. Crash point [`mfod_faultline::points::STORE_COMMIT`] sits
    /// between intent and commit.
    ///
    /// The bytes are validated *before* anything touches disk: committed
    /// means servable, so a non-MFOD blob or a container of the wrong
    /// kind is rejected with a typed error and zero side effects.
    pub fn promote_bytes(
        &mut self,
        bytes: &[u8],
        kind: u32,
        config_fingerprint: u64,
        tag: &str,
    ) -> Result<ManifestEntry> {
        let reader = SnapshotReader::parse(bytes)?;
        if reader.kind() != kind {
            return Err(PersistError::WrongKind {
                got: reader.kind(),
                expected: kind,
            });
        }
        let generation = self.manifest.next_generation();
        let file = generation_file(generation);
        let entry = ManifestEntry {
            generation,
            file: file.clone(),
            kind,
            content_hash: fnv1a64(bytes),
            len: bytes.len() as u64,
            config_fingerprint,
            parent: self.manifest.active,
            tag: tag.to_string(),
        };
        // 1. snapshot durable (fsync file + dir inside save_bytes)
        crate::format::save_bytes(&self.dir.join(&file), bytes)?;
        let log_path = self.dir.join(DEPLOY_LOG_FILE);
        // 2. intent durable
        append_record(&log_path, &LogRecord::Intent(entry.clone()))?;
        // 3. commit marker — the generation exists the moment this lands
        if mfod_faultline::should_fire(mfod_faultline::points::STORE_COMMIT) {
            mfod_faultline::park_if_requested(mfod_faultline::points::STORE_COMMIT);
            return Err(PersistError::Io {
                path: log_path,
                source: std::io::Error::other("injected fault: store.commit"),
            });
        }
        append_record(&log_path, &LogRecord::Commit { generation })?;
        // 4. checkpoint (recovery would rebuild it from the log anyway)
        self.manifest.upsert(entry.clone());
        self.manifest.active = Some(generation);
        self.checkpoint()?;
        if let Some(m) = mfod_obs::active() {
            m.store_promotions.add(1);
            mfod_obs::journal::instant("store.promote");
        }
        Ok(entry)
    }

    /// Promotes a typed artifact ([`crate::format::to_bytes`] +
    /// [`ModelStore::promote_bytes`]).
    pub fn promote<T: Snapshot>(
        &mut self,
        value: &T,
        config_fingerprint: u64,
        tag: &str,
    ) -> Result<ManifestEntry> {
        self.promote_bytes(&to_bytes(value), T::KIND, config_fingerprint, tag)
    }

    /// Re-points the active generation at a prior committed one: one
    /// log append plus a checkpoint, no snapshot bytes touched. The
    /// target must be cataloged and its bytes must still validate.
    pub fn rollback(&mut self, generation: u64) -> Result<ManifestEntry> {
        let entry = self.manifest.entry(generation).cloned().ok_or_else(|| {
            PersistError::Malformed(format!(
                "rollback target generation {generation} is not in the catalog"
            ))
        })?;
        let path = self.dir.join(&entry.file);
        validate_entry_bytes(&path, &entry).map_err(PersistError::Malformed)?;
        let from = self.manifest.active.unwrap_or(0);
        append_record(
            &self.dir.join(DEPLOY_LOG_FILE),
            &LogRecord::Rollback {
                from,
                to: generation,
            },
        )?;
        self.manifest.active = Some(generation);
        self.checkpoint()?;
        if let Some(m) = mfod_obs::active() {
            m.store_rollbacks.add(1);
            mfod_obs::journal::instant("store.rollback");
        }
        Ok(entry)
    }

    /// Installs the active generation into `registry` via the mapped
    /// path: one map, a length and content-hash check against
    /// the catalog entry, one decode. Returns the installed **store**
    /// generation, or `None` when the store has nothing committed. A
    /// later [`ModelRegistry::sync_store`] on this directory sees the
    /// generation as already served.
    pub fn install_active<T: Restorable>(
        &self,
        registry: &ModelRegistry<T>,
    ) -> Result<Option<u64>> {
        let Some(entry) = self.manifest.active_entry() else {
            return Ok(None);
        };
        registry.install_entry(&self.dir, entry)?;
        Ok(Some(entry.generation))
    }

    /// Verifies the whole directory against the catalog and log without
    /// mutating anything: re-hashes every cataloged artifact, re-parses
    /// containers, and reports orphans, stray temps, uncommitted
    /// intents, torn log tails and checkpoint divergence — every
    /// problem typed, never a panic.
    pub fn fsck(&self) -> Result<FsckReport> {
        fsck_dir(&self.dir)
    }
}

/// Hash-first validation of one cataloged snapshot file: length, FNV
/// content hash, then container parse. Returns a human-readable reason
/// on the first failure.
fn validate_entry_bytes(path: &Path, entry: &ManifestEntry) -> std::result::Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    entry.check_bytes(&bytes)?;
    let reader = SnapshotReader::parse(&bytes).map_err(|e| format!("container invalid: {e}"))?;
    if reader.kind() != entry.kind {
        return Err(format!(
            "container kind {} != manifest kind {}",
            reader.kind(),
            entry.kind
        ));
    }
    Ok(())
}

/// The committed active entry of the store at `dir`, derived read-only
/// from its deploy log: nothing is truncated, quarantined or
/// checkpointed, so a torn tail reads as its valid prefix. `None` when
/// nothing is servable — no commit yet, or the "rolled back to nothing"
/// sentinel. A missing `dir` is an I/O error; a missing log is an empty
/// store.
pub(crate) fn logged_active_entry(dir: &Path) -> Result<Option<ManifestEntry>> {
    std::fs::metadata(dir).map_err(|source| PersistError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut state = derive_state(&replay(&dir.join(DEPLOY_LOG_FILE))?.records);
    let Some(active) = state.active else {
        return Ok(None);
    };
    state.intents.remove(&active).map(Some).ok_or_else(|| {
        PersistError::Malformed(format!(
            "deploy log commits generation {active} without an intent"
        ))
    })
}

/// [`ModelStore::fsck`] as a free function — verifies any directory
/// (the store need not be open, so an operator can point it at a copy).
pub fn fsck_dir(dir: &Path) -> Result<FsckReport> {
    let io = |path: &Path| {
        let path = path.to_path_buf();
        move |source| PersistError::Io {
            path: path.clone(),
            source,
        }
    };
    let mut report = FsckReport::default();

    // log first: its state is the reference everything else checks against
    let rep = replay(&dir.join(DEPLOY_LOG_FILE))?;
    if let Some(torn) = &rep.torn {
        report.issues.push(FsckIssue::TornLogTail {
            offset: torn.offset,
            reason: torn.reason.clone(),
        });
    }
    let state = derive_state(&rep.records);
    for (&generation, entry) in &state.intents {
        // an uncommitted intent is live evidence only while its snapshot
        // is still in the directory; once recovery has quarantined the
        // file, the intent record is just append-only history
        if !state.committed.contains(&generation) && dir.join(&entry.file).exists() {
            report
                .issues
                .push(FsckIssue::UncommittedIntent { generation });
        }
    }

    // checkpoint vs log-derived state
    let manifest_path = dir.join(MANIFEST_FILE);
    let checkpoint: Option<Manifest> = if manifest_path.exists() {
        match crate::format::load::<Manifest>(&manifest_path) {
            Ok(m) => Some(m),
            Err(e) => {
                report.issues.push(FsckIssue::BadContainer {
                    file: MANIFEST_FILE.to_string(),
                    error: e.to_string(),
                });
                None
            }
        }
    } else {
        None
    };
    if let Some(cp) = &checkpoint {
        if cp.active != state.active {
            report.issues.push(FsckIssue::ManifestMismatch {
                detail: format!(
                    "checkpoint active {:?} != log-derived active {:?}",
                    cp.active, state.active
                ),
            });
        }
        for entry in &cp.entries {
            match state.intents.get(&entry.generation) {
                Some(logged) if logged == entry => {}
                Some(_) => report.issues.push(FsckIssue::ManifestMismatch {
                    detail: format!(
                        "checkpoint entry for generation {} differs from logged intent",
                        entry.generation
                    ),
                }),
                None => report.issues.push(FsckIssue::ManifestMismatch {
                    detail: format!(
                        "checkpoint entry for generation {} has no logged intent",
                        entry.generation
                    ),
                }),
            }
        }
    }

    // reference catalog for file checks: the checkpoint when valid,
    // else the committed subset of the log
    let mut catalog: BTreeMap<u64, ManifestEntry> = BTreeMap::new();
    match &checkpoint {
        Some(cp) => {
            for e in &cp.entries {
                catalog.insert(e.generation, e.clone());
            }
        }
        None => {
            for g in &state.committed {
                if let Some(e) = state.intents.get(g) {
                    catalog.insert(*g, e.clone());
                }
            }
        }
    }

    // walk the directory
    let mut present: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io(dir))? {
        let entry = entry.map_err(io(dir))?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.contains(TMP_INFIX) {
            report.issues.push(FsckIssue::StrayTemp { file: name });
            continue;
        }
        if entry.path().extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT) {
            present.push(name);
        }
    }
    present.sort();
    for name in &present {
        let cataloged = catalog.values().find(|e| e.file == *name);
        let intended = state.intents.values().any(|e| e.file == *name);
        if cataloged.is_none() && !intended {
            report.issues.push(FsckIssue::Orphan { file: name.clone() });
        }
    }

    // re-hash every cataloged artifact
    for (generation, entry) in &catalog {
        let path = dir.join(&entry.file);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                report.issues.push(FsckIssue::MissingFile {
                    generation: *generation,
                    file: entry.file.clone(),
                });
                continue;
            }
        };
        let mut ok = true;
        if bytes.len() as u64 != entry.len {
            report.issues.push(FsckIssue::LengthMismatch {
                generation: *generation,
                file: entry.file.clone(),
                expected: entry.len,
                actual: bytes.len() as u64,
            });
            ok = false;
        }
        let actual = fnv1a64(&bytes);
        if actual != entry.content_hash {
            report.issues.push(FsckIssue::HashMismatch {
                generation: *generation,
                file: entry.file.clone(),
                expected: entry.content_hash,
                actual,
            });
            ok = false;
        }
        if let Err(e) = SnapshotReader::parse(&bytes) {
            report.issues.push(FsckIssue::BadContainer {
                file: entry.file.clone(),
                error: e.to_string(),
            });
            ok = false;
        }
        if ok {
            report.clean.push(*generation);
        }
    }

    // the active pointer must have a clean snapshot behind it
    let active = checkpoint.as_ref().map_or(state.active, |cp| cp.active);
    if let Some(generation) = active {
        if !report.clean.contains(&generation) {
            report.issues.push(FsckIssue::ActiveMissing { generation });
        }
    }
    if let Some(m) = mfod_obs::active() {
        m.store_fsck_issues.add(report.issues.len() as u64);
        mfod_obs::journal::instant("store.fsck");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    //! Every test that writes through a persist fault hook (save, promote,
    //! log append) holds `serial_guard`, so a rule armed by a fault test
    //! in this binary cannot fire, or be used up, inside it.

    use super::*;
    use crate::wire::{Decode, Decoder, Encode, Encoder};
    use mfod_faultline::{points, FaultPlan, FaultRule};

    #[derive(Debug, Clone, PartialEq)]
    struct Weights {
        w: Vec<f64>,
    }

    impl Encode for Weights {
        fn encode(&self, w: &mut Encoder) {
            self.w.encode(w);
        }
    }

    impl Decode for Weights {
        fn decode(r: &mut Decoder<'_>) -> crate::Result<Self> {
            Ok(Weights {
                w: Vec::<f64>::decode(r)?,
            })
        }
    }

    impl Snapshot for Weights {
        const KIND: u32 = 0x57;
        const NAME: &'static str = "weights";
    }

    /// A live artifact restored from [`Weights`], for registry installs.
    struct Live(Weights);

    impl Restorable for Live {
        type Snapshot = Weights;
        fn restore(s: Weights) -> std::result::Result<Self, String> {
            Ok(Live(s))
        }
    }

    fn weights(seed: u64) -> Weights {
        Weights {
            w: (0..32).map(|i| (seed as f64) + i as f64 * 0.5).collect(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfod-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn manifest_state(store: &ModelStore) -> (Option<u64>, Vec<u64>) {
        (
            store.active_generation(),
            store
                .manifest()
                .entries
                .iter()
                .map(|e| e.generation)
                .collect(),
        )
    }

    #[test]
    fn promoting_invalid_bytes_is_rejected_before_any_disk_mutation() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("promote-garbage");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        // not a container at all
        assert!(store
            .promote_bytes(b"not a container", 1, 0, "bad")
            .is_err());
        // a valid container of the wrong kind
        let weights_bytes = crate::format::to_bytes(&weights(1));
        assert!(matches!(
            store.promote_bytes(&weights_bytes, 99, 0, "wrong-kind"),
            Err(PersistError::WrongKind { got, expected: 99 }) if got == Weights::KIND
        ));
        // zero side effects: empty catalog, no files, clean fsck
        assert!(store.manifest().entries.is_empty());
        assert_eq!(store.active_generation(), None);
        assert!(!dir.join(generation_file(1)).exists());
        assert!(!dir.join(DEPLOY_LOG_FILE).exists());
        assert!(store.fsck().unwrap().is_clean());
        // and the store still works after the rejections
        store.promote(&weights(1), 0, "good").unwrap();
        assert_eq!(store.active_generation(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_open_promote_assigns_monotone_generations() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("promote");
        let (mut store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, None);
        let e1 = store.promote(&weights(1), 0xC0FFEE, "a").unwrap();
        assert_eq!((e1.generation, e1.parent), (1, None));
        let e2 = store.promote(&weights(2), 0xC0FFEE, "b").unwrap();
        assert_eq!((e2.generation, e2.parent), (2, Some(1)));
        drop(store);
        let (mut store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(2));
        assert_eq!(report.committed, vec![1, 2]);
        assert!(report.quarantined.is_empty());
        let e3 = store.promote(&weights(3), 0xC0FFEE, "c").unwrap();
        assert_eq!((e3.generation, e3.parent), (3, Some(2)));
        // lineage survives in the reloaded catalog
        assert_eq!(store.manifest().entry(2).unwrap().parent, Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_intent_and_commit_quarantines_the_snapshot() {
        let _g = mfod_faultline::serial_guard();
        let dir = tmpdir("uncommitted");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        mfod_faultline::install(FaultPlan::new(3).rule(points::STORE_COMMIT, FaultRule::once()));
        let err = store.promote(&weights(2), 1, "doomed").unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert_eq!(report.committed, vec![1]);
        assert_eq!(report.quarantined.len(), 1);
        let (path, reason) = &report.quarantined[0];
        assert_eq!(*reason, QuarantineReason::UncommittedIntent);
        assert!(path.starts_with(dir.join(QUARANTINE_DIR)), "{path:?}");
        assert!(path.exists(), "quarantined file must be moved, not deleted");
        assert!(!dir.join(generation_file(2)).exists());
        assert!(store.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_leaves_a_stray_temp_that_recovery_quarantines() {
        let _g = mfod_faultline::serial_guard();
        let dir = tmpdir("stray");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        mfod_faultline::install(FaultPlan::new(5).rule(points::PERSIST_RENAME, FaultRule::once()));
        let err = store.promote(&weights(2), 1, "doomed").unwrap_err();
        mfod_faultline::disarm();
        assert!(matches!(err, PersistError::Io { .. }), "{err}");
        drop(store);
        let (_, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| *r == QuarantineReason::StrayTemp));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphans_and_torn_log_tails_are_preserved_in_quarantine() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("orphan");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "ok").unwrap();
        // an orphan snapshot nobody promoted, plus torn bytes on the log
        std::fs::write(dir.join("rogue.mfod"), b"not a snapshot").unwrap();
        use std::io::Write as _;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(DEPLOY_LOG_FILE))
            .unwrap();
        log.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop((store, log));
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert!(report.torn_log_tail);
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| *r == QuarantineReason::Orphan));
        let tail = report
            .quarantined
            .iter()
            .find(|(_, r)| matches!(r, QuarantineReason::TornLogTail(_)))
            .expect("torn tail quarantined");
        assert_eq!(std::fs::read(&tail.0).unwrap(), vec![0xAB, 0xCD, 0xEF]);
        // the log itself is clean again, and the store keeps promoting
        assert!(replay(&dir.join(DEPLOY_LOG_FILE)).unwrap().torn.is_none());
        let mut store = store;
        store.promote(&weights(2), 1, "after").unwrap();
        assert!(store.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_active_generation_falls_back_to_previous_committed() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("fallback");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "good").unwrap();
        store.promote(&weights(2), 1, "bad-later").unwrap();
        // flip one payload byte of generation 2 (same length)
        let path = dir.join(generation_file(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert!(report.fell_back);
        assert_eq!(report.active, Some(1));
        assert_eq!(report.committed, vec![1]);
        assert!(report
            .quarantined
            .iter()
            .any(|(_, r)| matches!(r, QuarantineReason::Damaged(_))));
        assert_eq!(store.active_generation(), Some(1));
        // the fallback was logged, so a recovered store fscks clean and a
        // registry following the log serves what the store installs
        assert!(store.fsck().unwrap().is_clean());
        let installed = ModelRegistry::<Live>::new();
        let followed = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&installed).unwrap(), Some(1));
        assert_eq!(followed.sync_store(&dir).unwrap(), Some(1));
        assert_eq!(followed.active().unwrap().0, weights(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_re_points_without_touching_snapshots_and_survives_reopen() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("rollback");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "v1").unwrap();
        store.promote(&weights(2), 1, "v2").unwrap();
        let before = std::fs::read(dir.join(generation_file(1))).unwrap();
        let entry = store.rollback(1).unwrap();
        assert_eq!(entry.generation, 1);
        assert_eq!(store.active_generation(), Some(1));
        assert_eq!(std::fs::read(dir.join(generation_file(1))).unwrap(), before);
        // both generations stay on disk: roll forward works too
        store.rollback(2).unwrap();
        assert_eq!(store.active_generation(), Some(2));
        store.rollback(1).unwrap();
        drop(store);
        let (store, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(report.active, Some(1));
        assert_eq!(store.active_generation(), Some(1));
        // rolling back to an unknown generation is a typed error
        let mut store = store;
        let err = store.rollback(42).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent() {
        let _g = mfod_faultline::serial_guard();
        let dir = tmpdir("idempotent");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "a").unwrap();
        mfod_faultline::install(FaultPlan::new(11).rule(points::STORE_COMMIT, FaultRule::once()));
        let _ = store.promote(&weights(2), 1, "b");
        mfod_faultline::disarm();
        drop(store);
        let (first, _) = ModelStore::open(&dir).unwrap();
        let first_state = manifest_state(&first);
        let mut listing: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        listing.sort();
        drop(first);
        let (second, report) = ModelStore::open(&dir).unwrap();
        assert_eq!(manifest_state(&second), first_state);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let mut relisting: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        relisting.sort();
        assert_eq!(relisting, listing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_every_mismatch_with_typed_issues_and_never_panics() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("fsck");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "a").unwrap();
        store.promote(&weights(2), 1, "b").unwrap();
        store.promote(&weights(3), 1, "c").unwrap();
        assert!(store.fsck().unwrap().is_clean());
        // tamper gen 1 (hash + container), remove gen 2, orphan + temp
        let p1 = dir.join(generation_file(1));
        let mut b1 = std::fs::read(&p1).unwrap();
        let mid = b1.len() / 2;
        b1[mid] ^= 0xFF;
        std::fs::write(&p1, &b1).unwrap();
        std::fs::rename(dir.join(generation_file(2)), dir.join("elsewhere")).unwrap();
        std::fs::write(dir.join("orphan.mfod"), b"junk").unwrap();
        std::fs::write(dir.join(format!("x{TMP_INFIX}999-0")), b"half").unwrap();
        let report = store.fsck().unwrap();
        assert_eq!(report.clean, vec![3]);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::HashMismatch { generation: 1, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::BadContainer { .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::MissingFile { generation: 2, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::Orphan { file } if file == "orphan.mfod")));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::StrayTemp { .. })));
        // every issue renders without panicking
        for issue in &report.issues {
            assert!(!issue.to_string().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_flags_checkpoint_divergence_and_missing_active() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("fsck-manifest");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        store.promote(&weights(1), 1, "a").unwrap();
        // forge a checkpoint pointing at a generation the log never saw
        let mut forged = store.manifest().clone();
        let mut fake = forged.entries[0].clone();
        fake.generation = 9;
        fake.file = generation_file(9);
        forged.upsert(fake);
        forged.active = Some(9);
        crate::format::save(&forged, &dir.join(MANIFEST_FILE)).unwrap();
        let report = fsck_dir(&dir).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::ManifestMismatch { .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::MissingFile { generation: 9, .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::ActiveMissing { generation: 9 })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_active_threads_the_store_into_the_registry() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("install");
        let (mut store, _) = ModelStore::open(&dir).unwrap();
        let registry = ModelRegistry::<Live>::new();
        assert_eq!(store.install_active(&registry).unwrap(), None);
        store.promote(&weights(7), 1, "v").unwrap();
        let gen = store.install_active(&registry).unwrap();
        assert_eq!(gen, Some(1));
        assert_eq!(registry.active().unwrap().0, weights(7));
        // the store's install records the served identity: a follow-up
        // sync of the same directory is a no-op
        assert_eq!(registry.sync_store(&dir).unwrap(), Some(1));
        assert_eq!(registry.generation(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
