//! Property tests for the snapshot wire format and container.
//!
//! The two contracts under test:
//!
//! 1. **Bit-exact round-trips** — for arbitrary payloads (including NaN
//!    bit patterns, `-0.0`, subnormals), `encode → decode → re-encode`
//!    reproduces the original bytes exactly.
//! 2. **No panic on untrusted bytes** — arbitrary truncation and byte
//!    corruption of a valid snapshot always yield a typed
//!    [`PersistError`], never a panic, wrong value or unbounded
//!    allocation.

use mfod_linalg::Matrix;
use mfod_persist::{
    from_bytes, from_shared, to_bytes, Decode, Decoder, Encode, Encoder, PersistError, SharedBytes,
    Snapshot, SnapshotReader, SnapshotWriter,
};
use proptest::prelude::*;

/// A payload exercising every wire primitive at once.
#[derive(Debug, Clone, PartialEq)]
struct Mixed {
    xs: Vec<f64>,
    shape: (usize, usize),
    matrix: Matrix,
    tag: String,
    flag: bool,
    maybe: Option<f64>,
}

impl Encode for Mixed {
    fn encode(&self, w: &mut Encoder) {
        self.xs.encode(w);
        self.shape.encode(w);
        self.matrix.encode(w);
        self.tag.encode(w);
        self.flag.encode(w);
        self.maybe.encode(w);
    }
}

impl Decode for Mixed {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(Mixed {
            xs: Vec::decode(r)?,
            shape: <(usize, usize)>::decode(r)?,
            matrix: Matrix::decode(r)?,
            tag: String::decode(r)?,
            flag: bool::decode(r)?,
            maybe: Option::decode(r)?,
        })
    }
}

impl Snapshot for Mixed {
    const KIND: u32 = 0x4D49;
    const NAME: &'static str = "mixed";
}

/// Builds a deterministic payload from fuzzable scalars. Raw `u64` bits
/// reinterpreted as `f64` cover NaNs, infinities, subnormals and both
/// zeros — exactly the values a lossy text format would mangle.
fn mixed_from(bits: Vec<u64>, rows: usize, cols: usize, tag: String, flag: bool) -> Mixed {
    let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| f64::from_bits(bits[i % bits.len().max(1)].wrapping_mul(i as u64 | 1)))
        .collect();
    Mixed {
        maybe: xs.first().copied(),
        matrix: Matrix::from_vec(rows, cols, data),
        shape: (rows, cols),
        xs,
        tag,
        flag,
    }
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_bit_exact_and_reencode_is_byte_identical(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..40),
        rows in 1usize..8,
        cols in 1usize..8,
        flag in proptest::arbitrary::any::<bool>(),
    ) {
        let original = mixed_from(bits, rows, cols, String::from("κ-payload"), flag);
        let bytes = to_bytes(&original);
        let decoded: Mixed = from_bytes(&bytes).unwrap();
        // bit-exact field round-trips
        prop_assert_eq!(bits_of(&original.xs), bits_of(&decoded.xs));
        prop_assert_eq!(
            bits_of(original.matrix.as_slice()),
            bits_of(decoded.matrix.as_slice())
        );
        prop_assert_eq!(original.matrix.shape(), decoded.matrix.shape());
        prop_assert_eq!(&original.tag, &decoded.tag);
        prop_assert_eq!(original.flag, decoded.flag);
        prop_assert_eq!(
            original.maybe.map(f64::to_bits),
            decoded.maybe.map(f64::to_bits)
        );
        // re-encoding the decoded value reproduces the file byte for byte
        prop_assert_eq!(to_bytes(&decoded), bytes);
    }

    #[test]
    fn truncation_never_panics_and_always_errors(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        cut_permille in 0usize..1000,
    ) {
        let original = mixed_from(bits, 2, 3, String::from("t"), true);
        let bytes = to_bytes(&original);
        let cut = cut_permille * bytes.len() / 1000;
        let result = from_bytes::<Mixed>(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncation to {} bytes decoded", cut);
    }

    #[test]
    fn byte_corruption_never_panics_and_never_decodes_silently(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        at_permille in 0usize..1000,
        flip in 1u32..256,
    ) {
        let flip = flip as u8;
        let original = mixed_from(bits, 3, 2, String::from("c"), false);
        let mut bytes = to_bytes(&original);
        let at = at_permille * (bytes.len() - 1) / 1000;
        bytes[at] ^= flip;
        // every single-byte corruption is caught (CRC-32 detects all
        // 1-byte errors; header errors are typed before the CRC check)
        let result = from_bytes::<Mixed>(&bytes);
        prop_assert!(result.is_err(), "corrupt byte {} (xor {:#x}) decoded", at, flip);
    }

    #[test]
    fn shared_decode_is_bit_identical_to_owned(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..40),
        rows in 1usize..8,
        cols in 1usize..8,
        flag in proptest::arbitrary::any::<bool>(),
    ) {
        let original = mixed_from(bits, rows, cols, String::from("λ-payload"), flag);
        let bytes = to_bytes(&original);
        let owned: Mixed = from_bytes(&bytes).unwrap();
        let buf = SharedBytes::from_vec(bytes.clone());
        let shared: Mixed = from_shared(&buf).unwrap();
        // field-by-field bit equality across both paths (matrix equality
        // spans owned and borrowed storage)
        prop_assert_eq!(bits_of(&owned.xs), bits_of(&shared.xs));
        prop_assert_eq!(
            bits_of(owned.matrix.as_slice()),
            bits_of(shared.matrix.as_slice())
        );
        prop_assert_eq!(owned.matrix.shape(), shared.matrix.shape());
        prop_assert_eq!(&owned.tag, &shared.tag);
        prop_assert_eq!(owned.flag, shared.flag);
        prop_assert_eq!(owned.maybe.map(f64::to_bits), shared.maybe.map(f64::to_bits));
        // and the shared-decoded value re-encodes to the original file
        prop_assert_eq!(to_bytes(&shared), bytes);
    }

    #[test]
    fn shared_decode_rejects_exactly_what_owned_rejects(
        bits in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..16),
        at_permille in 0usize..1000,
        flip in 1u32..256,
    ) {
        let original = mixed_from(bits, 3, 2, String::from("e"), false);
        let mut bytes = to_bytes(&original);
        let at = at_permille * (bytes.len() - 1) / 1000;
        bytes[at] ^= flip as u8;
        let owned = from_bytes::<Mixed>(&bytes);
        let buf = SharedBytes::from_vec(bytes);
        let shared = from_shared::<Mixed>(&buf);
        // both paths reject, with the same typed error family
        prop_assert!(owned.is_err() && shared.is_err());
        prop_assert_eq!(
            std::mem::discriminant(&owned.unwrap_err()),
            std::mem::discriminant(&shared.unwrap_err())
        );
    }

    #[test]
    fn random_garbage_is_rejected_with_typed_errors(
        words in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..50),
    ) {
        let garbage: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        match from_bytes::<Mixed>(&garbage) {
            Ok(_) => prop_assert!(false, "garbage decoded as a snapshot"),
            Err(
                PersistError::BadMagic { .. }
                | PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::WrongKind { .. }
                | PersistError::Malformed(_)
                | PersistError::MissingSection { .. }
                | PersistError::UnknownTag { .. },
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error family: {e}"),
        }
    }
}

/// A small multi-section container for the exhaustive open sweeps:
/// three independently addressable `Vec<f64>` sections.
fn multi_section_bytes() -> Vec<u8> {
    let mut w = SnapshotWriter::new(0x4C5A);
    for id in 1u32..=3 {
        let payload: Vec<f64> = (0..9)
            .map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ (u64::from(id) << 40) ^ i))
            .collect();
        w.section(id, |enc| payload.encode(enc));
    }
    w.finish()
}

/// Whether [`SnapshotReader`] rejects `bytes` when opened over borrowed
/// bytes and when opened over an owner-pinned copy of them.
fn rejected_at_open(bytes: &[u8]) -> (bool, bool) {
    let shared = SharedBytes::from_vec(bytes.to_vec());
    (
        SnapshotReader::parse(bytes).is_err(),
        SnapshotReader::parse_shared(&shared).is_err(),
    )
}

/// Exhaustive sweep: **every** single-byte corruption of a multi-section
/// snapshot is rejected when the reader is opened — up front, before any
/// section is touched, over borrowed and owner-pinned bytes alike. This
/// is the "tamper in a section you never decode" guarantee: validation
/// is CRC-whole-file, not per-section.
#[test]
fn every_byte_flip_is_rejected_at_open() {
    let good = multi_section_bytes();
    for at in 0..good.len() {
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        assert_eq!(
            rejected_at_open(&bad),
            (true, true),
            "flip at byte {at} survived open"
        );
    }
    // and the pristine bytes still open, with all sections reachable
    let shared = SharedBytes::from_vec(good.clone());
    for reader in [
        SnapshotReader::parse(&good).unwrap(),
        SnapshotReader::parse_shared(&shared).unwrap(),
    ] {
        assert_eq!(reader.section_ids(), vec![1, 2, 3]);
        for id in 1u32..=3 {
            let mut dec = reader.section(id).unwrap();
            let xs = Vec::<f64>::decode(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(xs.len(), 9);
        }
    }
}

/// Exhaustive sweep: **every** truncation of a multi-section snapshot is
/// rejected when the reader is opened, over borrowed and owner-pinned
/// bytes alike.
#[test]
fn every_truncation_is_rejected_at_open() {
    let good = multi_section_bytes();
    for n in 0..good.len() {
        assert_eq!(
            rejected_at_open(&good[..n]),
            (true, true),
            "truncation to {n} bytes survived open"
        );
    }
}

/// A representative manifest for the codec sweeps: several generations,
/// a lineage chain, and an active pointer.
fn manifest_fixture() -> mfod_persist::Manifest {
    let mut m = mfod_persist::Manifest::new();
    for generation in 1..=4u64 {
        m.upsert(mfod_persist::ManifestEntry {
            generation,
            file: mfod_persist::generation_file(generation),
            kind: 1,
            content_hash: 0x1234_5678_9ABC_DEF0 ^ generation,
            len: 4096 + generation,
            config_fingerprint: 0xFEED,
            parent: generation.checked_sub(1).filter(|&p| p > 0),
            tag: format!("variant-{generation}"),
        });
    }
    m.active = Some(4);
    m
}

/// Exhaustive sweep: **every** single-byte corruption of an encoded
/// manifest is rejected — the deployment catalog gets the same
/// whole-file integrity gate as every other artifact.
#[test]
fn every_manifest_byte_flip_is_rejected() {
    let good = to_bytes(&manifest_fixture());
    for at in 0..good.len() {
        let mut bad = good.clone();
        bad[at] ^= 0x01;
        assert!(
            from_bytes::<mfod_persist::Manifest>(&bad).is_err(),
            "manifest flip at byte {at} decoded"
        );
        assert_eq!(
            rejected_at_open(&bad),
            (true, true),
            "manifest flip at byte {at} survived open"
        );
    }
    let back: mfod_persist::Manifest = from_bytes(&good).unwrap();
    assert_eq!(back, manifest_fixture());
}

/// Exhaustive sweep: **every** truncation of an encoded manifest is
/// rejected with a typed error, never a panic or partial catalog.
#[test]
fn every_manifest_truncation_is_rejected() {
    let good = to_bytes(&manifest_fixture());
    for n in 0..good.len() {
        match from_bytes::<mfod_persist::Manifest>(&good[..n]) {
            Ok(_) => panic!("manifest truncation to {n} bytes decoded"),
            Err(
                PersistError::BadMagic { .. }
                | PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Malformed(_)
                | PersistError::MissingSection { .. },
            ) => {}
            Err(e) => panic!("manifest truncation to {n}: unexpected error family: {e}"),
        }
    }
}

/// A tiny store artifact for the recovery-idempotence property.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    v: Vec<f64>,
}

impl Encode for Probe {
    fn encode(&self, w: &mut Encoder) {
        self.v.encode(w);
    }
}

impl Decode for Probe {
    fn decode(r: &mut Decoder<'_>) -> mfod_persist::Result<Self> {
        Ok(Probe { v: Vec::decode(r)? })
    }
}

impl Snapshot for Probe {
    const KIND: u32 = 0x5052;
    const NAME: &'static str = "probe";
}

/// Directory listing minus the quarantine subdir contents ordering
/// noise: sorted names of everything in the store dir and quarantine.
fn store_footprint(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for base in [dir.to_path_buf(), dir.join(mfod_persist::QUARANTINE_DIR)] {
        let Ok(entries) = std::fs::read_dir(&base) else {
            continue;
        };
        for e in entries.filter_map(|e| e.ok()) {
            if e.file_type().map(|t| t.is_file()).unwrap_or(false) {
                let prefix = if base.ends_with(mfod_persist::QUARANTINE_DIR) {
                    "quarantine/"
                } else {
                    ""
                };
                names.push(format!("{prefix}{}", e.file_name().to_string_lossy()));
            }
        }
    }
    names.sort();
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery is idempotent: whatever mess a seeded crash schedule
    /// leaves behind, opening the store twice yields the same catalog,
    /// the same active generation and the same on-disk footprint as
    /// opening it once.
    #[test]
    fn recovery_is_idempotent_across_seeded_crash_schedules(
        seed in proptest::arbitrary::any::<u64>(),
        promotions in 1usize..5,
        crash_point in 0usize..4,
    ) {
        let _guard = mfod_faultline::serial_guard();
        let dir = std::env::temp_dir().join(format!(
            "mfod-recovery-prop-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let point = [
            mfod_faultline::points::PERSIST_FSYNC,
            mfod_faultline::points::PERSIST_RENAME,
            mfod_faultline::points::MANIFEST_APPEND_TORN,
            mfod_faultline::points::STORE_COMMIT,
        ][crash_point];
        {
            let (mut store, _) = mfod_persist::ModelStore::open(&dir).unwrap();
            for i in 0..promotions {
                let probe = Probe {
                    v: (0..16).map(|j| seed as f64 + (i * 16 + j) as f64).collect(),
                };
                store.promote(&probe, seed, &format!("p{i}")).unwrap();
            }
            // crash the final promotion at the seeded point
            mfod_faultline::install(
                mfod_faultline::FaultPlan::new(seed)
                    .rule(point, mfod_faultline::FaultRule::once()),
            );
            let doomed = Probe { v: vec![seed as f64; 8] };
            let _ = store.promote(&doomed, seed, "doomed");
            mfod_faultline::disarm();
        }
        let (once, _) = mfod_persist::ModelStore::open(&dir).unwrap();
        let once_manifest = once.manifest().clone();
        let once_footprint = store_footprint(&dir);
        drop(once);
        let (twice, report) = mfod_persist::ModelStore::open(&dir).unwrap();
        prop_assert_eq!(twice.manifest(), &once_manifest);
        prop_assert_eq!(store_footprint(&dir), once_footprint);
        prop_assert!(
            report.quarantined.is_empty(),
            "second recovery re-quarantined: {:?}",
            report.quarantined
        );
        // and the recovered active generation always fscks clean
        prop_assert!(twice.fsck().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
