//! Bounded little-endian field reader for format decoders.
//!
//! Same discipline as `onex_net::proto::Reader`, specialised for
//! persisted artefacts: every method bounds-checks before touching
//! bytes and reports [`OnexError::Storage`] with the reader's context
//! label.

use onex_api::{OnexError, StorageErrorKind};

/// A cursor over a byte slice that refuses to read past the end.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Which artefact/section is being decoded — prefixes every error.
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// Start reading `bytes`; `context` names the artefact in errors
    /// (e.g. `"section CONFIG"`).
    pub fn new(bytes: &'a [u8], context: &'static str) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn corrupt(&self, what: &str) -> OnexError {
        OnexError::storage(
            StorageErrorKind::Corrupt,
            format!("{}: {} at offset {}", self.context, what, self.pos),
        )
    }

    /// Take the next `n` bytes as a borrowed slice.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], OnexError> {
        if self.remaining() < n {
            return Err(self.corrupt(&format!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, OnexError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, OnexError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, OnexError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64, OnexError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Assert every byte has been consumed — trailing garbage is
    /// corruption, not padding.
    pub fn finish(self) -> Result<(), OnexError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(&format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_in_order_and_rejects_overrun() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&2.5f64.to_le_bytes());
        bytes.push(9);
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.u8().unwrap(), 9);
        assert!(r.u8().is_err());
    }

    #[test]
    fn finish_flags_trailing_garbage() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes, "test");
        r.take(2).unwrap();
        let err = r.finish().unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
