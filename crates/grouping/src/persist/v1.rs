//! Format **v1**: the original variable-stride stream.
//!
//! ```text
//! magic  b"ONEXBASE"                        8 bytes
//! version u32                               (currently 1)
//! payload:
//!   config: st f64, min/max_len u32, stride u32, policy u8, normalized u8
//!   source_series u32
//!   n_lengths u32
//!   per length:
//!     len u32, n_groups u32
//!     per group:
//!       representative: len × f64
//!       radius f64
//!       n_members u32, members: (series u32, start u32) …
//! checksum u64 (FNV-1a over the payload bytes)
//! ```
//!
//! The checksum is verified **before** decoding begins, and every
//! count-driven decode step is bounds-checked against the remaining
//! payload before it sizes an allocation ([`Reader::counted`]) — a file
//! that declares four billion members cannot make the loader reserve
//! four billion slots, whether or not its checksum happens to match.

use std::collections::BTreeMap;
use std::io::Write;

use onex_api::{OnexError, StorageErrorKind};
use onex_storage::{fnv1a64, Reader};
use onex_tseries::SubseqRef;

use crate::{BaseConfig, GroupColumn, OnexBase, RepresentativePolicy};

pub(super) const MAGIC: &[u8; 8] = b"ONEXBASE";
const VERSION: u32 = 1;

fn corrupt(msg: impl Into<String>) -> OnexError {
    OnexError::storage(
        StorageErrorKind::Corrupt,
        format!("v1 base: {}", msg.into()),
    )
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serialise a base as a v1 stream.
pub(super) fn save<W: Write>(base: &OnexBase, mut w: W) -> Result<(), OnexError> {
    let mut enc = Enc::new();
    let cfg = base.config();
    enc.f64(cfg.st);
    enc.u32(cfg.min_len as u32);
    enc.u32(cfg.max_len as u32);
    enc.u32(cfg.stride as u32);
    enc.u8(match cfg.policy {
        RepresentativePolicy::Centroid => 0,
        RepresentativePolicy::Seed => 1,
    });
    enc.u8(cfg.length_normalized as u8);
    enc.u32(base.source_series() as u32);

    let lengths: Vec<usize> = base.lengths().collect();
    enc.u32(lengths.len() as u32);
    for len in lengths {
        let groups = base.groups_for_len(len);
        enc.u32(len as u32);
        enc.u32(groups.len() as u32);
        for g in groups {
            debug_assert_eq!(g.representative().len(), len);
            for &v in g.representative() {
                enc.f64(v);
            }
            enc.f64(g.radius());
            enc.u32(g.members().len() as u32);
            for m in g.members() {
                enc.u32(m.series);
                enc.u32(m.start);
            }
        }
    }

    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&enc.buf)?;
    w.write_all(&fnv1a64(&enc.buf).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Decode a complete v1 file image (magic already sniffed by the
/// caller, but re-checked here).
pub(super) fn decode(all: &[u8]) -> Result<OnexBase, OnexError> {
    if all.len() < MAGIC.len() + 4 + 8 {
        return Err(corrupt("file too short"));
    }
    if &all[..8] != MAGIC {
        return Err(OnexError::storage(
            StorageErrorKind::BadMagic,
            "not a v1 ONEX base file",
        ));
    }
    let version = u32::from_le_bytes(all[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(OnexError::storage(
            StorageErrorKind::UnsupportedVersion,
            format!("v1 reader cannot decode base version {version}"),
        ));
    }
    let payload = &all[12..all.len() - 8];
    let expected = u64::from_le_bytes(all[all.len() - 8..].try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if expected != actual {
        return Err(OnexError::storage(
            StorageErrorKind::ChecksumMismatch,
            format!("file says {expected:#018x}, content is {actual:#018x}"),
        ));
    }

    let mut r = Reader::new(payload, "v1 base");
    let st = r.f64()?;
    let min_len = r.u32()? as usize;
    let max_len = r.u32()? as usize;
    let stride = r.u32()? as usize;
    let policy = match r.u8()? {
        0 => RepresentativePolicy::Centroid,
        1 => RepresentativePolicy::Seed,
        other => {
            return Err(corrupt(format!(
                "unknown representative policy tag {other}"
            )))
        }
    };
    let length_normalized = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(corrupt(format!(
                "bad boolean tag {other} for length_normalized"
            )))
        }
    };
    let config = BaseConfig {
        st,
        min_len,
        max_len,
        stride,
        policy,
        length_normalized,
    };
    config
        .validate()
        .map_err(|e| corrupt(format!("invalid config: {e}")))?;
    let source_series = r.u32()? as usize;

    // Minimum bytes one length record / one group can occupy — the
    // units `counted` validates declared counts against.
    let n_lengths = r.counted(4 + 4)?;
    let mut groups = BTreeMap::new();
    for _ in 0..n_lengths {
        let len = r.u32()? as usize;
        if len < 1 {
            return Err(corrupt("zero group length"));
        }
        let rep_bytes = len
            .checked_mul(8)
            .ok_or_else(|| corrupt("length overflows"))?;
        // Smallest possible group: representative + radius + member
        // count + one member.
        let n_groups = r.counted(rep_bytes + 8 + 4 + 8)?;
        // No dataset here: every group keeps a copy of what was stored.
        let mut gs = GroupColumn::new();
        for _ in 0..n_groups {
            let rep = r
                .take(rep_bytes)?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));
            let radius = r.f64()?;
            let n_members = r.counted(8)?;
            if n_members == 0 {
                return Err(corrupt("empty group"));
            }
            let members: Vec<SubseqRef> = r
                .take(n_members * 8)?
                .chunks_exact(8)
                .map(|c| {
                    let series = u32::from_le_bytes(c[..4].try_into().expect("4 bytes"));
                    let start = u32::from_le_bytes(c[4..].try_into().expect("4 bytes"));
                    SubseqRef::new(series, start, len as u32)
                })
                .collect();
            gs.push_decoded(rep, members, radius, None);
        }
        gs.shrink_to_fit();
        if groups.insert(len, gs).is_some() {
            return Err(corrupt(format!("duplicate length {len}")));
        }
    }
    r.finish()?;
    Ok(OnexBase::from_parts(config, groups, source_series))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{kind_of, sample_base, to_bytes};
    use super::*;
    use crate::persist::load;

    #[test]
    fn round_trip_preserves_structure() {
        let base = sample_base();
        let bytes = to_bytes(&base);
        let back = load(bytes.as_slice()).unwrap();
        assert_eq!(back.config(), base.config());
        assert_eq!(back.source_series(), base.source_series());
        assert_eq!(back.stats(), base.stats());
        for (id, g) in base.iter() {
            let g2 = back.group(id).unwrap();
            assert_eq!(g2.representative(), g.representative());
            assert_eq!(g2.members(), g.members());
            assert_eq!(g2.radius(), g.radius());
        }
        // v1 does not carry sketches; they are re-derived later.
        assert!(back.sketches().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&sample_base());
        bytes[0] = b'X';
        assert_eq!(
            kind_of(load(bytes.as_slice()).unwrap_err()),
            StorageErrorKind::BadMagic
        );
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = to_bytes(&sample_base());
        bytes[8] = 99;
        assert_eq!(
            kind_of(load(bytes.as_slice()).unwrap_err()),
            StorageErrorKind::UnsupportedVersion
        );
    }

    #[test]
    fn detects_corruption_and_truncation() {
        let bytes = to_bytes(&sample_base());
        // Flip one payload byte.
        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        assert_eq!(
            kind_of(load(corrupted.as_slice()).unwrap_err()),
            StorageErrorKind::ChecksumMismatch
        );
        // Truncate.
        let truncated = &bytes[..bytes.len() - 9];
        assert!(load(truncated).is_err());
        // Empty.
        assert!(load(&[][..]).is_err());
    }

    /// A hostile file can carry a *correct* checksum over absurd
    /// counts — FNV-1a is not a MAC. The decoder must reject the count
    /// against the bytes actually present instead of allocating.
    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // Hand-build a payload: valid config + one length declaring
        // u32::MAX groups, then seal it with a *valid* checksum.
        let mut enc = Enc::new();
        enc.f64(1.0); // st
        enc.u32(5); // min_len
        enc.u32(12); // max_len
        enc.u32(1); // stride
        enc.u8(0); // policy
        enc.u8(0); // normalized
        enc.u32(3); // source_series
        enc.u32(1); // n_lengths
        enc.u32(5); // len
        enc.u32(u32::MAX); // n_groups — backed by zero bytes
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&VERSION.to_le_bytes());
        file.extend_from_slice(&enc.buf);
        file.extend_from_slice(&fnv1a64(&enc.buf).to_le_bytes());

        let err = load(file.as_slice()).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::Corrupt);
    }
}
