//! The `QCES` artifact container: magic, format version, a section
//! table, and one CRC-32 per section.
//!
//! Layout (little-endian; full specification in DESIGN.md §5e):
//!
//! ```text
//! offset    size  field
//! 0         4     magic "QCES"
//! 4         2     format version (u16) — currently 1
//! 6         2     section count (u16)
//! 8         16·n  section table, one row per section:
//!                   kind u16 | reserved u16 (zero) | payload_len u64 | crc32 u32
//! 8+16·n    4     header CRC-32, computed over bytes 0..8+16·n
//! 8+16·n+4  …     payloads, concatenated in table order
//! ```
//!
//! The CRC-32 (IEEE 802.3, the same [`qce_attack::ecc::crc32`] that
//! guards LSB payloads) is computed over each payload independently, so
//! a single damaged section is pinpointed without re-reading the rest;
//! the header CRC extends that guarantee to the magic, version, and
//! table bytes, so *any* single-bit flip in an artifact is detected.
//! [`Artifact::from_bytes`] verifies *everything* — magic, version,
//! declared lengths against the actual byte count, and every checksum —
//! before returning, which is what lets the stage cache treat any
//! deserialization error as a miss rather than a risk.

use std::path::Path;

use qce_attack::ecc::crc32;

use crate::{Result, StoreError};

/// The four magic bytes opening every artifact file.
pub const MAGIC: [u8; 4] = *b"QCES";

/// The container format version this crate writes and accepts.
///
/// A reader encountering any other version must treat the artifact as
/// unusable (the stage cache degrades that to a miss); there is no
/// cross-version migration.
pub const FORMAT_VERSION: u16 = 1;

/// Well-known section kind tags.
///
/// Kinds are an open set: the container round-trips any `u16`, and
/// downstream crates may claim tags ≥ [`section_kind::DOWNSTREAM_BASE`]
/// for payloads this crate does not know about (the `qce` flow crate
/// stores its stage reports that way).
pub mod section_kind {
    /// A trained float network: parameters and buffers
    /// ([`crate::persist::network_to_bytes`]).
    pub const NETWORK: u16 = 1;
    /// A quantized network: per-tensor codebooks plus the packed
    /// cluster-index stream ([`crate::persist::quantized_to_bytes`]).
    pub const QUANTIZED_NETWORK: u16 = 2;
    /// A selected-dataset index list
    /// ([`crate::persist::indices_to_bytes`]).
    pub const INDEX_LIST: u16 = 3;
    /// A training history ([`crate::persist::history_to_bytes`]).
    pub const TRAINING_HISTORY: u16 = 4;
    /// First tag reserved for payload types defined outside this crate.
    pub const DOWNSTREAM_BASE: u16 = 0x100;
}

/// One tagged, CRC-guarded payload inside an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The section's kind tag (see [`section_kind`]).
    pub kind: u16,
    /// The opaque payload bytes.
    pub payload: Vec<u8>,
}

/// A versioned container of tagged sections — the unit the stage cache
/// reads and writes.
///
/// # Examples
///
/// ```
/// use qce_store::{Artifact, section_kind};
///
/// let mut artifact = Artifact::new();
/// artifact.push(section_kind::INDEX_LIST, vec![1, 2, 3]);
/// let bytes = artifact.to_bytes();
///
/// let back = Artifact::from_bytes(&bytes).unwrap();
/// assert_eq!(back.section(section_kind::INDEX_LIST), Some(&[1u8, 2, 3][..]));
/// assert_eq!(back.section(section_kind::NETWORK), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Artifact {
    sections: Vec<Section>,
}

impl Artifact {
    /// An artifact with no sections.
    #[must_use]
    pub fn new() -> Self {
        Artifact::default()
    }

    /// Appends a section. Order is preserved; duplicate kinds are
    /// allowed (lookup returns the first).
    pub fn push(&mut self, kind: u16, payload: Vec<u8>) -> &mut Self {
        self.sections.push(Section { kind, payload });
        self
    }

    /// The payload of the first section with `kind`, if present.
    #[must_use]
    pub fn section(&self, kind: u16) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| s.payload.as_slice())
    }

    /// Like [`Artifact::section`] but with a descriptive error for
    /// artifacts that should contain the section.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] when no section has `kind`.
    pub fn require(&self, kind: u16) -> Result<&[u8]> {
        self.section(kind)
            .ok_or_else(|| StoreError::format(format!("artifact has no section of kind {kind}")))
    }

    /// All sections, in storage order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Serializes the artifact: header, section table with per-section
    /// CRC-32, the header CRC-32, then the concatenated payloads.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_total: usize = self.sections.iter().map(|s| s.payload.len()).sum();
        let mut out = Vec::with_capacity(12 + 16 * self.sections.len() + payload_total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u16).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&s.kind.to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes());
            out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(&s.payload).to_le_bytes());
        }
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&s.payload);
        }
        out
    }

    /// Parses and *fully verifies* an artifact: magic, format version,
    /// section-table bounds, and the CRC-32 of every payload.
    ///
    /// # Errors
    ///
    /// - [`StoreError::Format`] for anything structurally wrong (bad
    ///   magic, unsupported version, truncation, trailing bytes,
    ///   lengths that overflow).
    /// - [`StoreError::Corrupt`] when a payload fails its checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 8 {
            return Err(StoreError::format("shorter than the fixed header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(StoreError::format("bad magic, not a qce artifact"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::format(format!(
                "unsupported artifact format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        let table_end = 8usize
            .checked_add(count.checked_mul(16).ok_or_else(table_overflow)?)
            .ok_or_else(table_overflow)?;
        let header_end = table_end.checked_add(4).ok_or_else(table_overflow)?;
        if bytes.len() < header_end {
            return Err(StoreError::format(format!(
                "section table truncated: {} declared sections need {} bytes, have {}",
                count,
                header_end,
                bytes.len()
            )));
        }
        let stored_header_crc = u32::from_le_bytes(
            bytes[table_end..header_end]
                .try_into()
                .expect("4-byte slice"),
        );
        let actual_header_crc = crc32(&bytes[..table_end]);
        if stored_header_crc != actual_header_crc {
            return Err(StoreError::format(format!(
                "header CRC mismatch (stored {stored_header_crc:#010x}, \
                 computed {actual_header_crc:#010x})"
            )));
        }
        let mut rows = Vec::with_capacity(count);
        let mut offset = header_end;
        for i in 0..count {
            let row = &bytes[8 + 16 * i..8 + 16 * (i + 1)];
            let kind = u16::from_le_bytes([row[0], row[1]]);
            let len = u64::from_le_bytes(row[4..12].try_into().expect("8-byte slice"));
            let len = usize::try_from(len).map_err(|_| table_overflow())?;
            let crc = u32::from_le_bytes(row[12..16].try_into().expect("4-byte slice"));
            let end = offset.checked_add(len).ok_or_else(table_overflow)?;
            if end > bytes.len() {
                return Err(StoreError::format(format!(
                    "payload {i} truncated: wants bytes {offset}..{end} of {}",
                    bytes.len()
                )));
            }
            rows.push((kind, offset, end, crc));
            offset = end;
        }
        if offset != bytes.len() {
            return Err(StoreError::format(format!(
                "{} trailing bytes after the last payload",
                bytes.len() - offset
            )));
        }
        let mut sections = Vec::with_capacity(count);
        for (kind, start, end, expected) in rows {
            let payload = &bytes[start..end];
            let actual = crc32(payload);
            if actual != expected {
                return Err(StoreError::Corrupt {
                    kind,
                    expected,
                    actual,
                });
            }
            sections.push(Section {
                kind,
                payload: payload.to_vec(),
            });
        }
        Ok(Artifact { sections })
    }
}

impl Artifact {
    /// Serializes the artifact to `path`, creating parent directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a directory or the file cannot be
    /// written.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    StoreError::io(format!("creating directory {}", parent.display()), e)
                })?;
            }
        }
        std::fs::write(path, self.to_bytes())
            .map_err(|e| StoreError::io(format!("writing artifact {}", path.display()), e))
    }
}

/// The format version a byte buffer *declares*, if it carries the QCES
/// magic — readable even when [`Artifact::from_bytes`] would reject the
/// buffer as an unsupported version. Diagnostic tooling uses this to
/// distinguish "written by a newer build, regenerate it" from "not an
/// artifact at all".
#[must_use]
pub fn peek_version(bytes: &[u8]) -> Option<u16> {
    if bytes.len() >= 6 && bytes[0..4] == MAGIC {
        Some(u16::from_le_bytes([bytes[4], bytes[5]]))
    } else {
        None
    }
}

fn table_overflow() -> StoreError {
    StoreError::format("section table lengths overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new();
        a.push(section_kind::NETWORK, vec![1, 2, 3, 4, 5]);
        a.push(section_kind::INDEX_LIST, Vec::new());
        a.push(section_kind::DOWNSTREAM_BASE + 7, vec![0xAA; 100]);
        a
    }

    #[test]
    fn round_trip_preserves_sections_and_order() {
        let a = sample();
        let back = Artifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.sections().len(), 3);
        assert_eq!(back.section(section_kind::INDEX_LIST), Some(&[][..]));
        assert!(back.require(section_kind::NETWORK).is_ok());
        assert!(back.require(section_kind::QUANTIZED_NETWORK).is_err());
    }

    #[test]
    fn every_bit_flip_in_a_payload_is_detected() {
        let bytes = sample().to_bytes();
        // Payloads start after the 8-byte header + 3 table rows + header CRC.
        let payload_start = 8 + 16 * 3 + 4;
        for byte in payload_start..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                let err = Artifact::from_bytes(&damaged).unwrap_err();
                assert!(
                    matches!(err, StoreError::Corrupt { .. }),
                    "byte {byte} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn header_damage_is_a_format_error() {
        let bytes = sample().to_bytes();
        // Magic.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(
            Artifact::from_bytes(&b),
            Err(StoreError::Format { .. })
        ));
        // Version.
        let mut b = bytes.clone();
        b[4] = 0xFF;
        assert!(matches!(
            Artifact::from_bytes(&b),
            Err(StoreError::Format { .. })
        ));
        // Truncations at every prefix length are errors, never panics.
        for len in 0..bytes.len() {
            assert!(Artifact::from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
        // Trailing garbage.
        let mut b = bytes;
        b.push(0);
        assert!(matches!(
            Artifact::from_bytes(&b),
            Err(StoreError::Format { .. })
        ));
    }

    #[test]
    fn absurd_declared_lengths_are_rejected() {
        let mut a = Artifact::new();
        a.push(1, vec![9; 4]);
        let mut bytes = a.to_bytes();
        // Declare a payload length far beyond the file size.
        bytes[8 + 4..8 + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(StoreError::Format { .. })
        ));
    }

    #[test]
    fn empty_artifact_round_trips() {
        let a = Artifact::new();
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 12);
        assert_eq!(Artifact::from_bytes(&bytes).unwrap(), a);
    }

    #[test]
    fn peek_version_reads_declared_version_even_when_unsupported() {
        let mut bytes = sample().to_bytes();
        assert_eq!(peek_version(&bytes), Some(FORMAT_VERSION));
        // A future format version: from_bytes refuses, peek still reads.
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = Artifact::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert_eq!(peek_version(&bytes), Some(FORMAT_VERSION + 1));
        // Not an artifact at all.
        assert_eq!(peek_version(b"png\x89 definitely not"), None);
        assert_eq!(peek_version(b"QCES"), None);
        assert_eq!(peek_version(&[]), None);
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join(format!("qce-format-io-{}", std::process::id()));
        let path = dir.join("nested").join("artifact.qces");
        let a = sample();
        a.write_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(Artifact::from_bytes(&bytes).unwrap(), a);
        // Damaged on disk: reading surfaces the verification error.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        // A parent that is a file: a contextual Io error.
        let blocked = path.join("child.qces");
        let err = a.write_file(&blocked).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("artifact.qces"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_damage_is_detected_by_the_header_crc() {
        let bytes = sample().to_bytes();
        // Flip one bit in every header/table byte (magic, version, count,
        // kind tags, reserved fields, lengths, CRCs, header CRC): all must
        // be rejected — payload CRCs alone would miss kind/reserved flips.
        for byte in 0..(8 + 16 * 3 + 4) {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 0x04;
            assert!(Artifact::from_bytes(&damaged).is_err(), "byte {byte}");
        }
    }
}
