//! The serving-side model registry: follow a [`crate::store::ModelStore`]
//! and atomically hot-swap its active model under live traffic.
//!
//! A [`ModelRegistry`] owns one *active* `Arc<T>` slot. Scoring threads
//! call [`ModelRegistry::active`] per batch — a read-lock plus an `Arc`
//! clone, never blocked by a concurrent install for longer than the swap
//! of one pointer — while an operator (or a watcher thread) installs new
//! generations. In-flight batches keep scoring against the `Arc` they
//! already cloned; the swap is torn-batch-free by construction.
//!
//! Deployment has one source of truth: the store's `deploy.log`.
//! [`ModelRegistry::sync_store`] replays it read-only and installs the
//! committed active generation, so a promotion, a rollback and a
//! roll-forward all reach the registry the same way;
//! [`ModelRegistry::watch_store`] runs that sync from a background
//! thread. [`ModelRegistry::install`], [`ModelRegistry::install_bytes`]
//! and [`ModelRegistry::install_mapped`] stay available for callers that
//! serve a model without a store.
//!
//! Snapshot bytes are untrusted: anything malformed (bad magic, future
//! version, truncation, checksum or catalog-hash mismatch, wrong artifact
//! kind, failed restore validation) is rejected with a typed
//! [`PersistError`] and the active model is left untouched.

use crate::error::PersistError;
use crate::format::{from_bytes, from_shared, Snapshot};
use crate::manifest::ManifestEntry;
use crate::map::SharedBytes;
use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// A live artifact that can be rebuilt from its snapshot form.
///
/// The snapshot type carries the raw decoded state; `restore` re-runs the
/// domain validation and rebuilds any derived structures (trait objects,
/// cached operators). Splitting the two keeps [`crate::wire::Decode`]
/// infallible with respect to *domain* rules — wire errors and domain
/// errors stay distinct.
pub trait Restorable: Sized {
    /// The on-disk form of this artifact.
    type Snapshot: Snapshot;

    /// Rebuilds the live artifact; the error string is wrapped in
    /// [`PersistError::Restore`].
    fn restore(snapshot: Self::Snapshot) -> std::result::Result<Self, String>;
}

/// An atomically hot-swappable slot holding the active model generation.
pub struct ModelRegistry<T> {
    active: RwLock<Option<Arc<T>>>,
    generation: AtomicU64,
    /// `(store generation, content hash)` of the catalog entry behind
    /// the active model, when a store installed it — lets
    /// [`ModelRegistry::sync_store`] skip an unchanged active generation
    /// without touching its file. `None` after any direct `install*`.
    served: Mutex<Option<(u64, u64)>>,
}

impl<T> std::fmt::Debug for ModelRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("loaded", &self.active().is_some())
            .field("generation", &self.generation())
            .finish()
    }
}

impl<T> Default for ModelRegistry<T> {
    fn default() -> Self {
        ModelRegistry {
            active: RwLock::new(None),
            generation: AtomicU64::new(0),
            served: Mutex::new(None),
        }
    }
}

impl<T> ModelRegistry<T> {
    /// An empty registry (no active model yet).
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// The active model, if any — a cheap `Arc` clone; callers hold it
    /// for the duration of one batch so a concurrent swap can never tear
    /// a batch across two models.
    pub fn active(&self) -> Option<Arc<T>> {
        self.active
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Monotone counter incremented by every successful install; 0 means
    /// nothing was ever installed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically replaces the active model, returning the new generation
    /// number. The previous model is dropped when its last in-flight
    /// batch finishes.
    ///
    /// The store's log stays the source of truth: a direct install
    /// forgets which store generation was served, so the next
    /// [`ModelRegistry::sync_store`] re-installs the store's active
    /// generation over it. The same holds for
    /// [`ModelRegistry::install_bytes`] and
    /// [`ModelRegistry::install_mapped`].
    pub fn install(&self, model: Arc<T>) -> u64 {
        self.install_tagged(model, None)
    }

    fn install_tagged(&self, model: Arc<T>, served: Option<(u64, u64)>) -> u64 {
        // Take both locks in a fixed order so a concurrent sync's identity
        // check can never observe an identity newer than the slot.
        let mut slot = self.active.write().unwrap_or_else(|p| p.into_inner());
        *self.served.lock().unwrap_or_else(|p| p.into_inner()) = served;
        *slot = Some(model);
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(m) = mfod_obs::active() {
            m.registry_swaps.add(1);
            m.registry_generation.set(generation);
            m.win_registry_swaps.add(1);
            mfod_obs::journal::instant("registry.swap");
        }
        generation
    }
}

impl<T: Restorable> ModelRegistry<T> {
    /// Decodes, restores and installs a snapshot byte buffer. Resets the
    /// served store identity, like [`ModelRegistry::install`].
    pub fn install_bytes(&self, bytes: &[u8]) -> Result<u64> {
        let started = mfod_obs::active().map(|_| std::time::Instant::now());
        let snapshot = from_bytes::<T::Snapshot>(bytes)?;
        let model = T::restore(snapshot).map_err(PersistError::Restore)?;
        let generation = self.install_tagged(Arc::new(model), None);
        if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
            m.registry_install_time
                .record(t.elapsed().as_nanos() as u64);
        }
        Ok(generation)
    }

    /// Restores and installs a model from already-mapped snapshot bytes.
    fn install_shared(&self, shared: &SharedBytes, served: Option<(u64, u64)>) -> Result<u64> {
        let started = mfod_obs::active().map(|_| std::time::Instant::now());
        let snapshot = from_shared::<T::Snapshot>(shared)?;
        let model = T::restore(snapshot).map_err(PersistError::Restore)?;
        let generation = self.install_tagged(Arc::new(model), served);
        if let (Some(m), Some(t)) = (mfod_obs::active(), started) {
            m.registry_install_time
                .record(t.elapsed().as_nanos() as u64);
        }
        Ok(generation)
    }

    /// Memory-maps one snapshot file, validates it (header + table + CRC
    /// over the mapped slice) and hot-swaps the restored model in.
    /// Matrix payloads are served zero-copy out of the mapping wherever
    /// alignment allows; the decoded model owns the keep-alive handles,
    /// so the mapping lives exactly as long as any view into it. The
    /// active model is untouched when the file fails any validation step.
    /// Resets the served store identity, like [`ModelRegistry::install`].
    pub fn install_mapped(&self, path: &Path) -> Result<u64> {
        self.install_shared(&SharedBytes::map(path)?, None)
    }

    /// Installs one store catalog entry from `dir`: maps the file once,
    /// checks its length and FNV-1a hash against the entry, then decodes
    /// it with [`crate::format::from_shared`] and records `(generation, content_hash)`
    /// as the served identity. A mismatch is
    /// [`PersistError::Malformed`] and leaves the active model untouched.
    pub(crate) fn install_entry(&self, dir: &Path, entry: &ManifestEntry) -> Result<u64> {
        let shared = SharedBytes::map(&dir.join(&entry.file))?;
        entry
            .check_bytes(shared.as_slice())
            .map_err(|why| PersistError::Malformed(format!("{}: {why}", entry.file)))?;
        self.install_shared(&shared, Some((entry.generation, entry.content_hash)))
    }

    /// Brings the registry up to the store at `dir`: replays its
    /// `deploy.log` read-only and installs the committed active
    /// generation, unless that generation (same store generation, same
    /// content hash) is already the one served. Returns the store
    /// generation now served.
    ///
    /// * The follower never writes to `dir`: a torn log tail is read as
    ///   its valid prefix and left for [`crate::store::ModelStore::open`]
    ///   to quarantine.
    /// * A damaged or unreadable active artifact is a typed error; the
    ///   served model stays in place.
    /// * When the log names nothing servable (no commit yet, or the
    ///   recovery sentinel "rolled back to nothing"), the registry keeps
    ///   whatever model it already has and returns `Ok(None)`.
    /// * A direct `install*` call resets the served identity, so the next
    ///   sync re-installs the store's active generation: the log is the
    ///   one source of truth.
    pub fn sync_store(&self, dir: &Path) -> Result<Option<u64>> {
        let obs = mfod_obs::active();
        let started = obs.map(|_| std::time::Instant::now());
        let outcome = self.sync_store_inner(dir);
        if let (Some(m), Some(t)) = (obs, started) {
            m.registry_sweeps.add(1);
            m.registry_sweep_time.record_duration(t.elapsed());
        }
        outcome
    }

    fn sync_store_inner(&self, dir: &Path) -> Result<Option<u64>> {
        if mfod_faultline::should_fire(mfod_faultline::points::REGISTRY_SWEEP) {
            return Err(PersistError::Io {
                path: dir.to_path_buf(),
                source: std::io::Error::other("injected fault: registry.sweep"),
            });
        }
        let Some(entry) = crate::store::logged_active_entry(dir)? else {
            return Ok(None);
        };
        let identity = Some((entry.generation, entry.content_hash));
        if *self.served.lock().unwrap_or_else(|p| p.into_inner()) == identity {
            if let Some(m) = mfod_obs::active() {
                m.registry_unchanged.add(1);
            }
            return Ok(Some(entry.generation));
        }
        if let Err(e) = self.install_entry(dir, &entry) {
            if let Some(m) = mfod_obs::active() {
                m.registry_rejected.add(1);
                m.win_registry_rejected.add(1);
            }
            return Err(e);
        }
        Ok(Some(entry.generation))
    }
}

/// Shared stop flag of a [`WatchHandle`]: the watcher thread waits on the
/// condvar between polls, so a stop request interrupts the sleep
/// immediately instead of after the current interval.
type StopSignal = Arc<(Mutex<bool>, Condvar)>;

/// Ceiling on the exponent in the watcher backoff schedule; with the
/// default factor of 2 this caps the multiplier at 2¹⁶ before
/// [`WatchConfig::max_backoff`] clamps the interval anyway.
const MAX_BACKOFF_LEVEL: u32 = 16;

/// Tuning for a [`ModelRegistry::watch_store_with`] watcher: the healthy
/// poll interval plus the failure backoff schedule.
///
/// Consecutive failing syncs back the interval off exponentially —
/// `interval · factorᵏ` after `k` consecutive failures, clamped to
/// `max_backoff` — with a deterministic jitter (up to +25%, drawn from a
/// xoshiro stream seeded by `jitter_seed`) so a fleet of watchers sharing
/// a seed-per-host never thunders back in lockstep. One successful sync
/// resets the schedule to `interval`.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Healthy steady-state poll interval.
    pub interval: Duration,
    /// Backoff multiplier per consecutive failing sync (values < 2 are
    /// treated as 2⁰ = no growth beyond the first step... clamped to ≥1).
    pub backoff_factor: u32,
    /// Upper bound on the backed-off interval.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl WatchConfig {
    /// Defaults: factor 2, `max_backoff = 64 · interval`, jitter seed 0.
    pub fn new(interval: Duration) -> Self {
        WatchConfig {
            interval,
            backoff_factor: 2,
            max_backoff: interval.saturating_mul(64),
            jitter_seed: 0,
        }
    }
}

/// The backed-off sleep before the next sync: `interval · factor^level`
/// clamped to `max_backoff`, stretched by `jitter_frac ∈ [0, 1)` mapped
/// onto `[1.0, 1.25)`. Level 0 (healthy) is exactly `interval`, no
/// jitter. Pure, so the schedule is unit-testable without a watcher.
fn backoff_interval(config: &WatchConfig, level: u32, jitter_frac: f64) -> Duration {
    if level == 0 {
        return config.interval;
    }
    let factor =
        u64::from(config.backoff_factor.max(1)).saturating_pow(level.min(MAX_BACKOFF_LEVEL));
    let factor = u32::try_from(factor).unwrap_or(u32::MAX);
    let base = config
        .interval
        .saturating_mul(factor)
        .min(config.max_backoff);
    base.mul_f64(1.0 + 0.25 * jitter_frac.clamp(0.0, 1.0))
        .min(config.max_backoff.mul_f64(1.25))
}

/// Point-in-time health of a watcher loop, surfaced by
/// [`WatchHandle::health`]. Failing syncs no longer vanish: the latest
/// typed error's message, the consecutive-failure streak and the current
/// backoff posture are all readable while the watcher self-heals.
#[derive(Debug, Clone)]
pub struct RegistryHealth {
    /// Did the most recent completed sync succeed? (`true` before the
    /// first sync completes — no evidence of trouble yet.)
    pub healthy: bool,
    /// Length of the current consecutive-failure streak (0 when healthy).
    pub consecutive_failures: u64,
    /// Current backoff exponent (0 when healthy).
    pub backoff_level: u32,
    /// The sleep chosen before the next sync (equals the configured
    /// interval when healthy, the jittered backed-off value otherwise).
    pub next_interval: Duration,
    /// Message of the most recent sync error, retained across recovery
    /// for post-mortems; `None` until a sync first fails. A damaged
    /// active artifact lands here with its typed reason.
    pub last_error: Option<String>,
    /// Times the watcher transitioned failing → healthy.
    pub recoveries: u64,
}

/// Handle to a background store follower started by
/// [`ModelRegistry::watch_store`] / [`ModelRegistry::watch_store_with`].
/// Dropping the handle (or calling [`WatchHandle::stop`]) signals the
/// watcher thread and joins it.
pub struct WatchHandle {
    stop: StopSignal,
    polls: Arc<AtomicU64>,
    health: Arc<Mutex<RegistryHealth>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WatchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchHandle")
            .field("polls", &self.polls())
            .field("running", &self.thread.is_some())
            .finish()
    }
}

impl WatchHandle {
    /// Number of completed [`ModelRegistry::sync_store`] polls so far
    /// (no-op polls included; read [`ModelRegistry::generation`] for how
    /// many of them actually deployed a new model).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Acquire)
    }

    /// A snapshot of the watcher's health: last sync outcome, failure
    /// streak, backoff posture and the most recent sync error.
    pub fn health(&self) -> RegistryHealth {
        self.health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Signals the watcher to stop and joins its thread. Any poll already
    /// in flight finishes first; a sleeping watcher wakes immediately.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let (flag, signal) = &*self.stop;
        *flag.lock().unwrap_or_else(|p| p.into_inner()) = true;
        signal.notify_all();
        let _ = thread.join();
    }
}

impl Drop for WatchHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<T: Restorable + Send + Sync + 'static> ModelRegistry<T> {
    /// Starts a background thread that re-runs
    /// [`ModelRegistry::sync_store`] on the store at `dir` every
    /// `interval` — the push-free deployment loop: an operator promotes
    /// or rolls back through a [`crate::store::ModelStore`] and the next
    /// poll hot-swaps the committed active generation in, with no
    /// registry call from the serving path.
    ///
    /// Polling is cheap in the steady state: an unchanged active
    /// generation matches the served identity after one read of the
    /// deploy log, so `generation()` keeps counting real deployments, not
    /// polls. Sync errors (the directory briefly missing, a damaged
    /// active artifact) are non-fatal and never unseat the served model —
    /// the watcher self-heals: consecutive failures back the poll
    /// interval off exponentially with deterministic jitter (see
    /// [`WatchConfig`]), one success resets the schedule, and the latest
    /// error stays readable via [`WatchHandle::health`] instead of
    /// vanishing.
    ///
    /// The first poll runs immediately. The returned [`WatchHandle`]
    /// owns the thread: dropping it stops the watcher.
    pub fn watch_store(
        self: &Arc<Self>,
        dir: impl Into<PathBuf>,
        interval: Duration,
    ) -> WatchHandle {
        self.watch_store_with(dir, WatchConfig::new(interval))
    }

    /// [`ModelRegistry::watch_store`] with an explicit backoff/jitter
    /// configuration.
    pub fn watch_store_with(
        self: &Arc<Self>,
        dir: impl Into<PathBuf>,
        config: WatchConfig,
    ) -> WatchHandle {
        let dir = dir.into();
        let registry = Arc::clone(self);
        let stop: StopSignal = Arc::new((Mutex::new(false), Condvar::new()));
        let polls = Arc::new(AtomicU64::new(0));
        let health = Arc::new(Mutex::new(RegistryHealth {
            healthy: true,
            consecutive_failures: 0,
            backoff_level: 0,
            next_interval: config.interval,
            last_error: None,
            recoveries: 0,
        }));
        let thread = {
            let stop = Arc::clone(&stop);
            let polls = Arc::clone(&polls);
            let health = Arc::clone(&health);
            std::thread::Builder::new()
                .name("mfod-registry-watch".into())
                .spawn(move || {
                    let (flag, signal) = &*stop;
                    let mut jitter = StdRng::seed_from_u64(config.jitter_seed);
                    let mut level: u32 = 0;
                    loop {
                        let outcome = registry.sync_store(&dir);
                        polls.fetch_add(1, Ordering::AcqRel);
                        let sleep = {
                            let mut h = health.lock().unwrap_or_else(|p| p.into_inner());
                            match outcome {
                                Ok(_) => {
                                    if !h.healthy {
                                        h.recoveries += 1;
                                    }
                                    h.healthy = true;
                                    h.consecutive_failures = 0;
                                    level = 0;
                                }
                                Err(e) => {
                                    h.healthy = false;
                                    h.consecutive_failures += 1;
                                    h.last_error = Some(e.to_string());
                                    level = (level + 1).min(MAX_BACKOFF_LEVEL);
                                }
                            }
                            // one jitter draw per *failing* sync keeps the
                            // stream a pure function of the failure schedule
                            let frac = if level > 0 { jitter.random() } else { 0.0 };
                            let sleep = backoff_interval(&config, level, frac);
                            h.backoff_level = level;
                            h.next_interval = sleep;
                            if let Some(m) = mfod_obs::active() {
                                let previous = m.registry_backoff.get();
                                m.registry_backoff.set(u64::from(level));
                                // Journal only *transitions*, so a healthy
                                // steady-state watcher stays silent in the
                                // trace.
                                if previous != u64::from(level) {
                                    mfod_obs::journal::instant(if u64::from(level) > previous {
                                        "registry.backoff.raise"
                                    } else {
                                        "registry.backoff.clear"
                                    });
                                }
                            }
                            sleep
                        };
                        let mut stopped = flag.lock().unwrap_or_else(|p| p.into_inner());
                        while !*stopped {
                            let (guard, timeout) = signal
                                .wait_timeout(stopped, sleep)
                                .unwrap_or_else(|p| p.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                })
                .expect("failed to spawn registry watcher")
        };
        WatchHandle {
            stop,
            polls,
            health,
            thread: Some(thread),
        }
    }
}

#[cfg(test)]
mod tests {
    //! Every test that writes through a persist fault hook (save, promote,
    //! log append) holds `serial_guard`, so a rule armed by a fault test
    //! in this binary cannot fire, or be used up, inside it.

    use super::*;
    use crate::format::{save, to_bytes};
    use crate::store::{generation_file, ModelStore, DEPLOY_LOG_FILE};
    use crate::wal::{append_record, LogRecord};
    use crate::wire::{Decode, Decoder, Encode, Encoder};

    #[derive(Debug, Clone, PartialEq)]
    struct WeightsSnapshot {
        w: Vec<f64>,
    }

    impl Encode for WeightsSnapshot {
        fn encode(&self, w: &mut Encoder) {
            self.w.encode(w);
        }
    }

    impl Decode for WeightsSnapshot {
        fn decode(r: &mut Decoder<'_>) -> Result<Self> {
            Ok(WeightsSnapshot { w: Vec::decode(r)? })
        }
    }

    impl Snapshot for WeightsSnapshot {
        const KIND: u32 = 0x77;
        const NAME: &'static str = "weights";
    }

    /// A "live" model whose restore validates finiteness.
    #[derive(Debug, PartialEq)]
    struct Weights {
        w: Vec<f64>,
    }

    impl Restorable for Weights {
        type Snapshot = WeightsSnapshot;
        fn restore(s: WeightsSnapshot) -> std::result::Result<Self, String> {
            if !s.w.iter().all(|v| v.is_finite()) {
                return Err("weights must be finite".into());
            }
            Ok(Weights { w: s.w })
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mfod-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn empty_registry_has_no_active_model() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        assert!(reg.active().is_none());
        assert_eq!(reg.generation(), 0);
        assert!(format!("{reg:?}").contains("generation"));
    }

    #[test]
    fn install_swaps_and_bumps_generation() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let g1 = reg.install(Arc::new(Weights { w: vec![1.0] }));
        assert_eq!(g1, 1);
        let held = reg.active().unwrap(); // an in-flight batch's handle
        let g2 = reg.install(Arc::new(Weights { w: vec![2.0] }));
        assert_eq!(g2, 2);
        // the in-flight handle still sees the old model; new callers the new
        assert_eq!(held.w, vec![1.0]);
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
    }

    #[test]
    fn install_bytes_validates_and_restores() {
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let ok = to_bytes(&WeightsSnapshot { w: vec![3.0, 4.0] });
        reg.install_bytes(&ok).unwrap();
        assert_eq!(reg.active().unwrap().w, vec![3.0, 4.0]);
        // domain validation runs on restore
        let bad = to_bytes(&WeightsSnapshot {
            w: vec![f64::INFINITY],
        });
        assert!(matches!(
            reg.install_bytes(&bad),
            Err(PersistError::Restore(_))
        ));
        // wire corruption is typed and leaves the active model alone
        let mut corrupt = ok.clone();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        assert!(reg.install_bytes(&corrupt).is_err());
        assert_eq!(reg.active().unwrap().w, vec![3.0, 4.0]);
        assert_eq!(reg.generation(), 1);
    }

    /// Promotes a one-weight generation.
    fn promote(store: &mut ModelStore, w: f64) {
        store
            .promote(&WeightsSnapshot { w: vec![w] }, 0, "t")
            .unwrap();
    }

    /// Opens a store at `dir` and promotes one generation per weight.
    fn store_with(dir: &Path, weights: &[f64]) -> ModelStore {
        let (mut store, _) = ModelStore::open(dir).unwrap();
        for &w in weights {
            promote(&mut store, w);
        }
        store
    }

    /// Flips one byte in the middle of a generation's snapshot file,
    /// keeping its length.
    fn flip_middle_byte(dir: &Path, generation: u64) {
        let path = dir.join(generation_file(generation));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// Polls `done` every 2 ms for up to 10 s.
    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The ROADMAP sequence: promote g1, promote g2, rollback to g1,
    /// install the active generation, then poll. A follower must keep
    /// serving g1; the newest file on disk (g2) must never come back.
    #[test]
    fn follower_keeps_a_rollback_and_follows_the_next_promotion() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("rollback");
        let mut store = store_with(&dir, &[1.0, 2.0]);
        let follower: ModelRegistry<Weights> = ModelRegistry::new();
        assert_eq!(follower.sync_store(&dir).unwrap(), Some(2));
        assert_eq!(follower.active().unwrap().w, vec![2.0]);

        store.rollback(1).unwrap();
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        assert_eq!(store.install_active(&reg).unwrap(), Some(1));
        assert_eq!(follower.sync_store(&dir).unwrap(), Some(1));
        for registry in [&reg, &follower] {
            let generation = registry.generation();
            let served = registry.active().unwrap();
            assert_eq!(served.w, vec![1.0]);
            for _ in 0..3 {
                assert_eq!(registry.sync_store(&dir).unwrap(), Some(1));
                assert_eq!(registry.generation(), generation);
                assert!(Arc::ptr_eq(&registry.active().unwrap(), &served));
            }
        }

        promote(&mut store, 3.0);
        for registry in [&reg, &follower] {
            assert_eq!(registry.sync_store(&dir).unwrap(), Some(3));
            assert_eq!(registry.active().unwrap().w, vec![3.0]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_active_artifact_is_a_typed_sync_error_and_keeps_the_model() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("damaged");
        let mut store = store_with(&dir, &[1.0]);
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        reg.sync_store(&dir).unwrap();
        let served = reg.active().unwrap();
        promote(&mut store, 2.0);
        flip_middle_byte(&dir, 2);
        let err = reg.sync_store(&dir).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(why) if why.contains("content hash")),
            "{err}"
        );
        assert_eq!(reg.generation(), 1);
        assert!(Arc::ptr_eq(&reg.active().unwrap(), &served));
        // the store's own install goes through the same check
        assert!(matches!(
            store.install_active(&reg),
            Err(PersistError::Malformed(_))
        ));
        // a truncated artifact fails the length check first
        let path = dir.join(generation_file(2));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let err = reg.sync_store(&dir).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
        assert!(Arc::ptr_eq(&reg.active().unwrap(), &served));
        // the follower only reads: recovery is still the store's job
        assert!(!dir.join(crate::store::QUARANTINE_DIR).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_log_tail_is_read_as_its_valid_prefix_without_writes() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("torn");
        drop(store_with(&dir, &[1.0, 2.0]));
        // a rollback to g1 that died mid-append: only a prefix of its
        // frame reached the log
        let scratch = dir.join("frame.log");
        append_record(&scratch, &LogRecord::Rollback { from: 2, to: 1 }).unwrap();
        let frame = std::fs::read(&scratch).unwrap();
        std::fs::remove_file(&scratch).unwrap();
        let log = dir.join(DEPLOY_LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() - 3]);
        std::fs::write(&log, &bytes).unwrap();

        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        assert_eq!(reg.sync_store(&dir).unwrap(), Some(2));
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
        assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log is untouched");
        assert!(!dir.join(crate::store::QUARANTINE_DIR).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nothing_servable_keeps_the_model_and_direct_installs_yield_to_the_log() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("sentinel");
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        // a missing directory is an error; an empty store serves nothing
        let missing = dir.join("not-there");
        assert!(matches!(
            reg.sync_store(&missing),
            Err(PersistError::Io { path, .. }) if path == missing
        ));
        assert_eq!(reg.sync_store(&dir).unwrap(), None);
        assert!(reg.active().is_none());

        drop(store_with(&dir, &[1.0]));
        assert_eq!(reg.sync_store(&dir).unwrap(), Some(1));
        // a direct install forgets the store identity: the next sync
        // re-installs the store's active generation over it
        reg.install(Arc::new(Weights { w: vec![9.0] }));
        assert_eq!(reg.sync_store(&dir).unwrap(), Some(1));
        assert_eq!(reg.active().unwrap().w, vec![1.0]);
        assert_eq!(reg.generation(), 3);

        // recovery's "rolled back to nothing" sentinel: keep what we have
        append_record(
            &dir.join(DEPLOY_LOG_FILE),
            &LogRecord::Rollback { from: 1, to: 0 },
        )
        .unwrap();
        let served = reg.active().unwrap();
        assert_eq!(reg.sync_store(&dir).unwrap(), None);
        assert_eq!(reg.generation(), 3);
        assert!(Arc::ptr_eq(&reg.active().unwrap(), &served));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backoff_schedule_is_exponential_capped_and_jittered() {
        let config = WatchConfig::new(Duration::from_millis(10));
        // healthy: exactly the interval, jitter ignored
        assert_eq!(backoff_interval(&config, 0, 0.9), config.interval);
        // exponential growth, deterministic at zero jitter
        assert_eq!(backoff_interval(&config, 1, 0.0), Duration::from_millis(20));
        assert_eq!(backoff_interval(&config, 3, 0.0), Duration::from_millis(80));
        // cap: 64 · interval by default
        assert_eq!(
            backoff_interval(&config, 16, 0.0),
            Duration::from_millis(640)
        );
        // jitter stretches by at most +25%
        let jittered = backoff_interval(&config, 1, 1.0);
        assert!(jittered >= Duration::from_millis(20) && jittered <= Duration::from_millis(25));
        // a huge level saturates instead of overflowing
        let wide = WatchConfig {
            backoff_factor: u32::MAX,
            ..WatchConfig::new(Duration::from_secs(1))
        };
        assert_eq!(backoff_interval(&wide, 16, 0.0), wide.max_backoff);
    }

    #[test]
    fn watcher_backs_off_on_failures_and_heals_on_recovery() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("heal");
        let gone = dir.join("not-yet-there");
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_store_with(
            &gone,
            WatchConfig {
                interval: Duration::from_millis(2),
                backoff_factor: 2,
                max_backoff: Duration::from_millis(20),
                jitter_seed: 7,
            },
        );
        // failing syncs: unhealthy, streak grows, backoff engages, the
        // error is surfaced instead of vanishing
        wait_until(|| handle.health().consecutive_failures >= 3);
        let sick = handle.health();
        assert!(!sick.healthy);
        assert!(sick.consecutive_failures >= 3);
        assert!(sick.backoff_level >= 3);
        assert!(sick.next_interval > Duration::from_millis(2));
        assert!(sick
            .last_error
            .as_deref()
            .is_some_and(|e| e.contains("not-yet-there")));
        // the store appears with a promoted generation: the watcher must
        // recover hands-free and reset the schedule
        drop(store_with(&gone, &[4.0]));
        wait_until(|| handle.health().healthy);
        let well = handle.health();
        assert!(well.healthy, "watcher must self-heal");
        assert_eq!(well.consecutive_failures, 0);
        assert_eq!(well.backoff_level, 0);
        assert_eq!(well.next_interval, Duration::from_millis(2));
        assert!(well.recoveries >= 1);
        assert!(well.last_error.is_some(), "history survives recovery");
        wait_until(|| reg.generation() >= 1);
        assert_eq!(reg.active().unwrap().w, vec![4.0]);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watcher_surfaces_a_damaged_active_artifact_until_rollback() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("rejections");
        let mut store = store_with(&dir, &[1.0]);
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        reg.sync_store(&dir).unwrap();
        // a promotion whose artifact rots on disk before anyone serves it
        promote(&mut store, 2.0);
        flip_middle_byte(&dir, 2);

        let handle = reg.watch_store(&dir, Duration::from_millis(2));
        wait_until(|| handle.health().consecutive_failures >= 2);
        // the damaged generation never unseated the good model, and its
        // typed reason is on the health surface
        assert_eq!(reg.active().unwrap().w, vec![1.0]);
        assert_eq!(reg.generation(), 1);
        let health = handle.health();
        assert!(!health.healthy);
        let why = health.last_error.expect("rejection must surface");
        assert!(why.contains("gen-000002.mfod"), "{why}");
        assert!(why.contains("content hash"), "{why}");
        // rolling back to the served generation heals without a swap,
        // and the reason is retained for post-mortems
        store.rollback(1).unwrap();
        wait_until(|| handle.health().healthy);
        let polls = handle.polls();
        wait_until(|| handle.polls() >= polls + 3);
        let health = handle.health();
        assert!(health.healthy);
        assert!(health.recoveries >= 1);
        assert!(health.last_error.is_some());
        assert_eq!(reg.generation(), 1);
        handle.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_mapped_swaps_from_a_mapped_file() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("mapped");
        let path = dir.join("gen-001.mfod");
        save(&WeightsSnapshot { w: vec![7.0, 8.0] }, &path).unwrap();
        let reg: ModelRegistry<Weights> = ModelRegistry::new();
        let generation = reg.install_mapped(&path).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(reg.active().unwrap().w, vec![7.0, 8.0]);
        // corrupt file: typed error, active model untouched
        let mut corrupt = std::fs::read(&path).unwrap();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        let bad = dir.join("gen-002.mfod");
        std::fs::write(&bad, &corrupt).unwrap();
        assert!(reg.install_mapped(&bad).is_err());
        assert_eq!(reg.active().unwrap().w, vec![7.0, 8.0]);
        assert!(matches!(
            reg.install_mapped(&dir.join("missing.mfod")),
            Err(PersistError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watcher_hot_swaps_new_promotions_and_stops_cleanly() {
        let _guard = mfod_faultline::serial_guard();
        let dir = tmpdir("watch");
        let mut store = store_with(&dir, &[1.0]);
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        let handle = reg.watch_store(&dir, Duration::from_millis(5));
        // the first (immediate) poll installs generation 1
        wait_until(|| reg.generation() >= 1);
        assert_eq!(reg.generation(), 1, "watcher must install the snapshot");
        assert_eq!(reg.active().unwrap().w, vec![1.0]);
        // steady-state polls are no-ops
        let polled = handle.polls();
        wait_until(|| handle.polls() >= polled + 3);
        assert_eq!(reg.generation(), 1, "no-op polls must not bump generation");
        // a new generation is promoted: the next poll hot-swaps, hands-free
        promote(&mut store, 2.0);
        wait_until(|| reg.generation() >= 2);
        assert_eq!(reg.generation(), 2, "watcher must pick up the promotion");
        assert_eq!(reg.active().unwrap().w, vec![2.0]);
        assert!(format!("{handle:?}").contains("polls"));
        // stop joins; a third promotion must NOT be installed once stopped
        handle.stop();
        promote(&mut store, 3.0);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(reg.generation(), 2, "a stopped watcher must not swap");
        // a watcher on a missing directory survives and keeps polling
        let missing = dir.join("not-there");
        let lost = reg.watch_store(&missing, Duration::from_millis(5));
        wait_until(|| lost.polls() >= 2);
        assert!(lost.polls() >= 2, "sync errors must not kill the watcher");
        drop(lost); // drop also stops
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers_during_swaps_never_tear() {
        let reg: Arc<ModelRegistry<Weights>> = Arc::new(ModelRegistry::new());
        reg.install(Arc::new(Weights { w: vec![0.0; 4] }));
        std::thread::scope(|scope| {
            let writer = {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for g in 1..50u64 {
                        reg.install(Arc::new(Weights {
                            w: vec![g as f64; 4],
                        }));
                    }
                })
            };
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let m = reg.active().unwrap();
                        // a model is always internally consistent
                        assert!(m.w.iter().all(|&v| v == m.w[0]));
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(reg.generation(), 50);
    }
}
