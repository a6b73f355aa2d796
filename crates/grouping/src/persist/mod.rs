//! The ONEX base image: how a base leaves memory and comes back.
//!
//! The demo loads a dataset once ("with a click of a button") and
//! explores it across many sessions, so the expensive construction
//! result must be reusable. [`save_v2`] writes a base as one segment
//! image (magic `ONEXSEG2`) on [`onex_storage`]: page-aligned sections
//! (configuration, per-length table, group records, drifted means, member
//! tables, L0 sketch records), fixed strides, per-section checksums.
//!
//! An image is only ever read beside the dataset it was built over. It
//! stores what that dataset does not hold — which windows group together,
//! the radii, the means `Centroid` groups drifted to, the L0 sketches
//! with their frozen [`onex_distance::SketchParams`] — and every other
//! representative is its group's first member's window, read in place
//! from the dataset on decode. Opening an image ([`BaseSegment::open`])
//! validates its structure and checksums; [`BaseSegment::decode`] then
//! refuses a dataset other than the one the image was built over, turns
//! every column into a base in one pass and drops the image bytes, so an
//! opened engine holds what a built one does. The sketches come back
//! verbatim, so a decoded base prunes immediately.
//!
//! All errors are the workspace-typed [`onex_api::OnexError`]:
//! `Io` when the disk fails, `Storage` when the bytes are wrong,
//! `DatasetMismatch` when the dataset is.
//!
//! The decoder obeys the same never-allocate-on-hostile-input rule
//! `onex_net` enforces on frames: every file-declared count is
//! validated against the bytes that could back it *before* it sizes an
//! allocation, and checksums are verified before any content-driven
//! decode begins.

mod v2;

pub use v2::{
    save_v2, save_v2_file, section_name, BaseSegment, SEC_CONFIG, SEC_GROUPS, SEC_LENGTHS,
    SEC_MEMBERS, SEC_REPS, SEC_SKETCHES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseBuilder, BaseConfig, OnexBase};
    use onex_api::{OnexError, StorageError, StorageErrorKind};
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};
    use onex_tseries::Dataset;

    pub(super) fn sample_dataset() -> Dataset {
        random_walk_dataset(SyntheticConfig {
            series: 5,
            len: 30,
            seed: 13,
        })
    }

    pub(super) fn sample_base() -> OnexBase {
        BaseBuilder::new(BaseConfig::new(1.0, 5, 12))
            .unwrap()
            .build(&sample_dataset())
            .0
    }

    /// `image`, decoded beside `dataset`.
    pub(super) fn decoded(image: Vec<u8>, dataset: &Dataset) -> OnexBase {
        BaseSegment::from_bytes(image)
            .unwrap()
            .decode(dataset)
            .unwrap()
    }

    pub(super) fn kind_of(err: OnexError) -> StorageErrorKind {
        match err {
            OnexError::Storage(StorageError { kind, .. }) => kind,
            other => panic!("expected a storage error, got {other}"),
        }
    }

    #[test]
    fn rejects_foreign_magic_and_empty_input() {
        let mut png = b"\x89PNG\x0d\x0a\x1a\x0a".to_vec();
        png.resize(64, b'X');
        let err = BaseSegment::from_bytes(png).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::BadMagic);
        let err = BaseSegment::from_bytes(Vec::new()).unwrap_err();
        assert!(matches!(err, OnexError::Storage(_)), "{err}");
    }

    #[test]
    fn a_file_round_trips_beside_its_dataset() {
        let dir = std::env::temp_dir().join("onex_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (ds, base) = (sample_dataset(), sample_base());
        let path = dir.join("base.onexbase");
        save_v2_file(&base, &path).unwrap();
        let segment = BaseSegment::open(&path).unwrap();
        assert_eq!(decoded(segment.as_bytes().to_vec(), &ds), base);
        std::fs::remove_file(&path).ok();
        assert!(matches!(BaseSegment::open(&path), Err(OnexError::Io(_))));
    }
}
