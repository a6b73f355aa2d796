//! Versioned binary persistence for the ONEX base.
//!
//! The demo loads a dataset once ("with a click of a button") and
//! explores it across many sessions, so the expensive construction
//! result must be reusable. Two formats exist:
//!
//! * **v1** (magic `ONEXBASE`) — the original variable-stride
//!   little-endian stream with one trailing FNV-1a checksum. Still
//!   written by [`save`] and always readable, but loading is
//!   O(collection): every group must be decoded and allocated before
//!   the first query.
//! * **v2** (magic `ONEXSEG2`) — the segment format built on
//!   [`onex_storage`]: page-aligned sections (config, per-length
//!   tables, group records, representative columns, member tables, L0
//!   sketch records), fixed strides, per-section checksums. Opening a v2
//!   file ([`BaseSegment::open`]) validates everything but decodes
//!   nothing; columns are resolved lazily per length
//!   ([`BaseSegment::load_length`]), which is what makes
//!   `Onex::open`'s cold start O(first query) instead of
//!   O(collection). v2 also persists the L0 sketches verbatim
//!   (with their frozen [`onex_distance::SketchParams`]) so a loaded
//!   base prunes immediately instead of re-encoding every member.
//!
//! [`load`] sniffs the magic and accepts either format. All errors are
//! the workspace-typed [`OnexError`]: [`OnexError::Io`] when the disk
//! fails, [`OnexError::Storage`] when the bytes are wrong.
//!
//! Both decoders obey the same never-allocate-on-hostile-input rule
//! `onex_net` enforces on frames: every file-declared count is
//! validated against the bytes that could back it *before* it sizes an
//! allocation, and checksums are verified before any content-driven
//! decode begins.
//!
//! Both formats store every representative's samples, and a decode
//! without the dataset gives every group an owned copy of them. The
//! engine's lazy path hands [`BaseSegment::load_length`] the dataset, and
//! a `Seed` column then comes back reading its first members' windows in
//! place, as it was built — same base by `==`, none of the copies.

use std::io::{Read, Write};
use std::path::Path;

use onex_api::{OnexError, StorageErrorKind};

use crate::OnexBase;

mod v1;
mod v2;

pub use v2::{
    save_v2, save_v2_file, section_name, BaseSegment, SEC_CONFIG, SEC_GROUPS, SEC_LENGTHS,
    SEC_MEMBERS, SEC_REPS, SEC_SKETCHES,
};

/// Serialise a base to a writer in format **v1** (the compatibility
/// stream every ONEX build can read). Prefer [`save_v2`] for new files.
///
/// # Errors
/// [`OnexError::Io`] if writing fails.
pub fn save<W: Write>(base: &OnexBase, w: W) -> Result<(), OnexError> {
    v1::save(base, w)
}

/// Deserialise a base from a reader, accepting either format (the
/// magic bytes decide).
///
/// # Errors
/// [`OnexError::Io`] if reading fails; [`OnexError::Storage`] if the
/// bytes are not a valid base file of a readable version.
pub fn load<R: Read>(mut r: R) -> Result<OnexBase, OnexError> {
    let mut all = Vec::new();
    r.read_to_end(&mut all)?;
    load_bytes(all)
}

/// [`load`] over an owned buffer (what `LoadBase` hands a shard).
///
/// # Errors
/// [`OnexError::Storage`] if the bytes are not a valid base file.
pub fn load_bytes(all: Vec<u8>) -> Result<OnexBase, OnexError> {
    match all.get(..8) {
        Some(m) if m == v1::MAGIC => v1::decode(&all),
        Some(m) if m == onex_storage::MAGIC => BaseSegment::from_bytes(all)?.load_all(),
        _ => Err(OnexError::storage(
            StorageErrorKind::BadMagic,
            "not an ONEX base file (neither ONEXBASE nor ONEXSEG2)",
        )),
    }
}

/// Save to a file path (format v1 — see [`save`]).
///
/// # Errors
/// [`OnexError::Io`] if the file cannot be created or written.
pub fn save_file(base: &OnexBase, path: impl AsRef<Path>) -> Result<(), OnexError> {
    let f = std::fs::File::create(path)?;
    save(base, std::io::BufWriter::new(f))
}

/// Load from a file path, accepting either format.
///
/// # Errors
/// See [`load`].
pub fn load_file(path: impl AsRef<Path>) -> Result<OnexBase, OnexError> {
    load_bytes(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseBuilder, BaseConfig};
    use onex_api::StorageError;
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

    pub(super) fn sample_dataset() -> onex_tseries::Dataset {
        random_walk_dataset(SyntheticConfig {
            series: 5,
            len: 30,
            seed: 13,
        })
    }

    pub(super) fn sample_base() -> OnexBase {
        let ds = sample_dataset();
        let (mut b, _) = BaseBuilder::new(BaseConfig::new(1.0, 5, 12))
            .unwrap()
            .build(&ds);
        b.sync_sketches(&ds);
        b
    }

    pub(super) fn to_bytes(b: &OnexBase) -> Vec<u8> {
        let mut out = Vec::new();
        save(b, &mut out).unwrap();
        out
    }

    pub(super) fn kind_of(err: OnexError) -> StorageErrorKind {
        match err {
            OnexError::Storage(StorageError { kind, .. }) => kind,
            other => panic!("expected a storage error, got {other}"),
        }
    }

    #[test]
    fn load_sniffs_both_formats() {
        let base = sample_base();
        let v1 = to_bytes(&base);
        let v2 = save_v2(&base);
        assert_eq!(&v1[..8], v1::MAGIC);
        assert_eq!(&v2[..8], &onex_storage::MAGIC);
        assert_eq!(load(v1.as_slice()).unwrap(), base);
        assert_eq!(load(v2.as_slice()).unwrap(), base);
    }

    #[test]
    fn rejects_foreign_magic_and_empty_input() {
        let err = load(&b"PNG\x0d\x0a\x1a\x0aXXXX"[..]).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::BadMagic);
        assert_eq!(
            kind_of(load(&[][..]).unwrap_err()),
            StorageErrorKind::BadMagic
        );
    }

    #[test]
    fn file_round_trip_both_formats() {
        let dir = std::env::temp_dir().join("onex_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = sample_base();

        let p1 = dir.join("base_v1.onex");
        save_file(&base, &p1).unwrap();
        assert_eq!(load_file(&p1).unwrap().stats(), base.stats());
        std::fs::remove_file(&p1).ok();

        let p2 = dir.join("base_v2.onex");
        save_v2_file(&base, &p2).unwrap();
        assert_eq!(load_file(&p2).unwrap().stats(), base.stats());
        std::fs::remove_file(&p2).ok();
    }
}
