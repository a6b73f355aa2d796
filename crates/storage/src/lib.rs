//! # onex-storage — the segment container
//!
//! The container every ONEX base image is stored in: a
//! page-aligned, fixed-stride, little-endian segment with a version
//! header, a section directory, and a 64-bit FNV-1a checksum per
//! section. Offsets are chosen so that every section can be borrowed
//! zero-copy from one `Vec<u8>` — or, later, an mmap — without any
//! decode-time allocation: [`Segment::section`] hands out `&[u8]`
//! slices, and the layers above decode fixed-stride records from them
//! on demand.
//!
//! The crate knows nothing about what the sections *mean* — section IDs
//! and record layouts belong to `onex_grouping::persist`. What it owns
//! is the contract a hostile or damaged file is validated against
//! before anything trusts it:
//!
//! * magic + version are checked first ([`MAGIC`], [`VERSION`]);
//! * the directory is bounds-checked against the file length *before*
//!   it is materialised (the same never-allocate-on-hostile-input rule
//!   `onex_net` enforces on frames);
//! * every directory entry must be page-aligned, in ascending offset
//!   order, non-overlapping, and inside the file;
//! * every section's checksum is verified at open — one linear hash
//!   pass over the bytes, no per-record allocation.
//!
//! [`Reader`] is the bounded little-endian field reader the base
//! decoder above is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reader;
mod segment;

pub use reader::Reader;
pub use segment::{SectionInfo, Segment, SegmentBuilder, MAGIC, PAGE, VERSION};

/// 64-bit FNV-1a over `bytes` — the checksum of the segment directory
/// and of every section.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.finish()
}

/// 64-bit FNV-1a fed in pieces: updating with `a`, then `b`, finishes
/// at [`fnv1a64`] of `a` and `b` concatenated.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hash `bytes` in after everything so far.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed in.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Append a `u8` to an encode buffer.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32` to an encode buffer.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64` to an encode buffer.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian IEEE-754 `f64` to an encode buffer.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let mut pieces = Fnv1a::default();
        pieces.update(b"foo");
        pieces.update(b"");
        pieces.update(b"bar");
        assert_eq!(pieces.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn put_helpers_encode_little_endian() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0x0102_0304);
        put_u64(&mut out, 0x0a0b_0c0d_0e0f_1011);
        put_f64(&mut out, 1.5);
        assert_eq!(out.len(), 1 + 4 + 8 + 8);
        assert_eq!(out[0], 7);
        assert_eq!(&out[1..5], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(f64::from_le_bytes(out[13..21].try_into().unwrap()), 1.5);
    }
}
