//! The segment container: header, section directory, page-aligned
//! payload sections, one FNV-1a checksum per section.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! 0   magic            [u8; 8]    "ONEXSEG2"
//! 8   version          u32        2
//! 12  section_count    u32
//! 16  directory_fnv    u64        FNV-1a over the directory bytes
//! 24  directory        32 B/entry id u32 | reserved u32 | offset u64
//!                                 | len u64 | section_fnv u64
//! ..  zero padding to the next 4096-byte boundary
//! ..  sections, each starting on a 4096-byte boundary,
//!     zero-padded up to the next boundary
//! ```
//!
//! Every structural rule is validated at [`Segment::from_bytes`] —
//! magic, version, directory bounds (checked against the file length
//! *before* the directory is materialised), per-entry alignment and
//! ordering, and every section checksum — so [`Segment::section`] can
//! be infallible and zero-copy afterwards.

use std::path::Path;

use onex_api::{OnexError, StorageErrorKind};

use crate::fnv1a64;

/// File magic of the segment container every ONEX base image is stored in.
pub const MAGIC: [u8; 8] = *b"ONEXSEG2";

/// Format version written into the header.
pub const VERSION: u32 = 2;

/// Section alignment: every section starts on a `PAGE`-byte boundary,
/// so a future mmap-backed reader can hand out aligned slices directly.
pub const PAGE: usize = 4096;

/// Fixed size of the header before the directory.
const HEADER: usize = 24;

/// Fixed stride of one directory entry.
const DIR_ENTRY: usize = 32;

/// Upper bound on `section_count` — far above any real base file, low
/// enough that a hostile header cannot size a meaningful allocation.
const MAX_SECTIONS: usize = 1 << 16;

/// One validated directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Caller-assigned section identifier (layouts above define these).
    pub id: u32,
    /// Byte offset of the section payload in the file (page-aligned).
    pub offset: u64,
    /// Payload length in bytes (excludes alignment padding).
    pub len: u64,
    /// FNV-1a checksum of the payload bytes.
    pub checksum: u64,
}

/// Accumulates sections and serialises them into one segment buffer.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SegmentBuilder {
    /// Start an empty segment.
    pub fn new() -> SegmentBuilder {
        SegmentBuilder::default()
    }

    /// Append a section. Sections are laid out in insertion order.
    ///
    /// # Panics
    /// If `id` was already added — duplicate section IDs would make
    /// [`Segment::section`] ambiguous, and the save paths that feed
    /// this builder control their IDs statically.
    pub fn section(&mut self, id: u32, bytes: Vec<u8>) -> &mut SegmentBuilder {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, bytes));
        self
    }

    /// Serialise: compute offsets and checksums, emit header +
    /// directory + page-aligned sections.
    pub fn finish(self) -> Vec<u8> {
        let dir_end = HEADER + self.sections.len() * DIR_ENTRY;
        let mut offset = dir_end.next_multiple_of(PAGE);
        let mut directory = Vec::with_capacity(self.sections.len() * DIR_ENTRY);
        for (id, bytes) in &self.sections {
            directory.extend_from_slice(&id.to_le_bytes());
            directory.extend_from_slice(&0u32.to_le_bytes());
            directory.extend_from_slice(&(offset as u64).to_le_bytes());
            directory.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            directory.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
            offset = (offset + bytes.len()).next_multiple_of(PAGE);
        }

        let mut out = Vec::with_capacity(offset);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&directory).to_le_bytes());
        out.extend_from_slice(&directory);
        for (_, bytes) in &self.sections {
            out.resize(out.len().next_multiple_of(PAGE), 0);
            out.extend_from_slice(bytes);
        }
        out
    }
}

/// A validated, immutable segment: owns the file bytes once and hands
/// out borrowed slices per section.
#[derive(Debug)]
pub struct Segment {
    data: Vec<u8>,
    directory: Vec<SectionInfo>,
}

impl Segment {
    /// Read and validate a segment file.
    ///
    /// # Errors
    /// [`OnexError::Io`] if the file cannot be read;
    /// [`OnexError::Storage`] if the bytes are not a valid v2 segment.
    pub fn open(path: impl AsRef<Path>) -> Result<Segment, OnexError> {
        Segment::from_bytes(std::fs::read(path)?)
    }

    /// Validate `data` as a v2 segment and take ownership of it.
    ///
    /// One linear pass: header, directory structure, then every
    /// section's checksum. No allocation is sized by file-declared
    /// counts before the bytes backing them are proven to exist.
    ///
    /// # Errors
    /// [`OnexError::Storage`] describing the first violated rule.
    pub fn from_bytes(data: Vec<u8>) -> Result<Segment, OnexError> {
        let fail = |kind, detail: String| Err(OnexError::storage(kind, detail));
        if data.len() < HEADER {
            return fail(
                StorageErrorKind::Corrupt,
                format!("file is {} bytes, header needs {HEADER}", data.len()),
            );
        }
        if data[..8] != MAGIC {
            return fail(
                StorageErrorKind::BadMagic,
                format!("file starts {:?}, not {:?}", &data[..8], MAGIC),
            );
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return fail(
                StorageErrorKind::UnsupportedVersion,
                format!("file declares version {version}, this binary reads {VERSION}"),
            );
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        // Bound the directory against both the hard cap and the actual
        // file length before materialising anything sized by `count`.
        let dir_bytes = count
            .checked_mul(DIR_ENTRY)
            .filter(|_| count <= MAX_SECTIONS);
        let dir_end = dir_bytes.and_then(|b| b.checked_add(HEADER));
        let dir_end = match dir_end {
            Some(end) if end <= data.len() => end,
            _ => {
                return fail(
                    StorageErrorKind::Corrupt,
                    format!(
                        "directory declares {count} sections but the file is {} bytes",
                        data.len()
                    ),
                )
            }
        };
        let declared = u64::from_le_bytes(data[16..24].try_into().expect("8 bytes"));
        let actual = fnv1a64(&data[HEADER..dir_end]);
        if declared != actual {
            return fail(
                StorageErrorKind::ChecksumMismatch,
                format!("directory: expected {declared:#018x}, computed {actual:#018x}"),
            );
        }

        let mut directory = Vec::with_capacity(count);
        let mut prev_end = dir_end as u64;
        for i in 0..count {
            let e = &data[HEADER + i * DIR_ENTRY..HEADER + (i + 1) * DIR_ENTRY];
            let info = SectionInfo {
                id: u32::from_le_bytes(e[0..4].try_into().expect("4 bytes")),
                offset: u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
                len: u64::from_le_bytes(e[16..24].try_into().expect("8 bytes")),
                checksum: u64::from_le_bytes(e[24..32].try_into().expect("8 bytes")),
            };
            if !info.offset.is_multiple_of(PAGE as u64) {
                return fail(
                    StorageErrorKind::Corrupt,
                    format!(
                        "section {} offset {} is not page-aligned",
                        info.id, info.offset
                    ),
                );
            }
            // Ascending offsets past the previous section's end rule out
            // both overlap and a section inside the directory.
            if info.offset < prev_end {
                return fail(
                    StorageErrorKind::Corrupt,
                    format!(
                        "section {} at offset {} overlaps bytes up to {prev_end}",
                        info.id, info.offset
                    ),
                );
            }
            let end = match info.offset.checked_add(info.len) {
                Some(end) if end <= data.len() as u64 => end,
                _ => {
                    return fail(
                        StorageErrorKind::Corrupt,
                        format!(
                            "section {} ({} bytes at {}) runs past the {}-byte file",
                            info.id,
                            info.len,
                            info.offset,
                            data.len()
                        ),
                    )
                }
            };
            if directory.iter().any(|s: &SectionInfo| s.id == info.id) {
                return fail(
                    StorageErrorKind::Corrupt,
                    format!("duplicate section id {}", info.id),
                );
            }
            let payload = &data[info.offset as usize..end as usize];
            let computed = fnv1a64(payload);
            if computed != info.checksum {
                return fail(
                    StorageErrorKind::ChecksumMismatch,
                    format!(
                        "section {}: expected {:#018x}, computed {computed:#018x}",
                        info.id, info.checksum
                    ),
                );
            }
            prev_end = end;
            directory.push(info);
        }
        Ok(Segment { data, directory })
    }

    /// The payload of section `id`, if the directory lists it.
    /// Zero-copy: borrows from the segment's buffer.
    pub fn section(&self, id: u32) -> Option<&[u8]> {
        self.directory
            .iter()
            .find(|s| s.id == id)
            .map(|s| &self.data[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// The validated directory, in file order.
    pub fn directory(&self) -> &[SectionInfo] {
        &self.directory
    }

    /// The whole validated file image — what `ShipBase` puts on the
    /// wire and what re-saving writes back out.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SegmentBuilder::new();
        b.section(1, vec![1, 2, 3, 4]);
        b.section(7, (0u16..5000).flat_map(|v| v.to_le_bytes()).collect());
        b.section(3, Vec::new());
        b.finish()
    }

    #[test]
    fn round_trips_sections_byte_identically() {
        let seg = Segment::from_bytes(sample()).unwrap();
        assert_eq!(seg.section(1).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(seg.section(7).unwrap().len(), 10_000);
        assert_eq!(seg.section(3).unwrap(), &[] as &[u8]);
        assert!(seg.section(99).is_none());
        assert_eq!(seg.directory().len(), 3);
    }

    #[test]
    fn sections_are_page_aligned_and_deterministic() {
        let bytes = sample();
        assert_eq!(bytes, sample(), "serialisation is deterministic");
        let seg = Segment::from_bytes(bytes).unwrap();
        for s in seg.directory() {
            assert_eq!(s.offset % PAGE as u64, 0, "section {}", s.id);
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let good = sample();

        let mut bad = good.clone();
        bad[0] = b'X';
        let err = Segment::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut bad = good.clone();
        bad[8] = 99;
        let err = Segment::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        for cut in [0, HEADER - 1, HEADER + 5, good.len() - 1] {
            assert!(
                Segment::from_bytes(good[..cut].to_vec()).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_directory_and_section_corruption() {
        let good = sample();
        let seg = Segment::from_bytes(good.clone()).unwrap();
        let payload_at = seg.directory()[1].offset as usize;

        // Flip a payload byte → that section's checksum fails.
        let mut bad = good.clone();
        bad[payload_at] ^= 0x40;
        let err = Segment::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Flip a directory byte → the directory checksum fails.
        let mut bad = good.clone();
        bad[HEADER + 2] ^= 0x01;
        let err = Segment::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("directory"), "{err}");

        // A hostile section count cannot drive an allocation: it is
        // rejected against the file length first.
        let mut bad = good;
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Segment::from_bytes(bad).unwrap_err();
        assert!(err.to_string().contains("sections"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate section id")]
    fn builder_panics_on_duplicate_id() {
        let mut b = SegmentBuilder::new();
        b.section(4, vec![1]);
        b.section(4, vec![2]);
    }
}
