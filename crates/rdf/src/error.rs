//! Error type shared by the RDF substrate.

use std::fmt;

/// Errors raised while parsing or manipulating RDF data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A syntax error while parsing a serialization format.
    Syntax {
        /// 1-based line number where the error was detected.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix {
        /// 1-based line number where the error was detected.
        line: usize,
        /// The undeclared prefix label.
        prefix: String,
    },
    /// A term id was used against an interner that does not know it.
    UnknownTerm(u32),
    /// A snapshot file does not start with the snapshot magic bytes.
    SnapshotBadMagic,
    /// A snapshot file uses a format version this build cannot read.
    SnapshotVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A snapshot file ended before a section was fully read.
    SnapshotTruncated {
        /// Section (or "header") being decoded when the data ran out.
        section: String,
        /// Byte offset where the read failed: within the section's
        /// payload, or within the file for the header and section frames.
        offset: usize,
    },
    /// A snapshot section's stored FNV checksum does not match its payload.
    SnapshotChecksum {
        /// The failing section.
        section: String,
    },
    /// A snapshot section decoded but its contents are inconsistent
    /// (out-of-range ids, unsorted runs, counts that disagree, …).
    SnapshotCorrupt {
        /// The inconsistent section.
        section: String,
        /// What was wrong.
        message: String,
    },
    /// A snapshot is stamped with a different dataset key than expected —
    /// a stale cache artifact that must be regenerated, not trusted.
    SnapshotKeyMismatch {
        /// The key the caller required.
        expected: String,
        /// The key embedded in the file.
        found: String,
    },
    /// The interner is full: it already holds the maximum number of
    /// distinct terms a `TermId` can address (`u32::MAX`), and a new term
    /// was presented for interning.
    TermCapacity,
    /// An I/O error while reading or writing a snapshot.
    Io(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::Syntax { line, message } => {
                write!(f, "syntax error at line {line}: {message}")
            }
            RdfError::UnknownPrefix { line, prefix } => {
                write!(f, "unknown prefix '{prefix}:' at line {line}")
            }
            RdfError::UnknownTerm(id) => write!(f, "unknown term id {id}"),
            RdfError::SnapshotBadMagic => {
                write!(f, "not a snapshot file (bad magic)")
            }
            RdfError::SnapshotVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads version {supported})"
                )
            }
            RdfError::SnapshotTruncated { section, offset } => {
                write!(
                    f,
                    "snapshot truncated in {section} section at offset {offset}"
                )
            }
            RdfError::SnapshotChecksum { section } => {
                write!(f, "snapshot checksum mismatch in {section} section")
            }
            RdfError::SnapshotCorrupt { section, message } => {
                write!(f, "corrupt snapshot {section} section: {message}")
            }
            RdfError::SnapshotKeyMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot key mismatch: expected '{expected}', file holds '{found}'"
                )
            }
            RdfError::TermCapacity => {
                write!(f, "interner full: u32::MAX distinct terms reached")
            }
            RdfError::Io(message) => write!(f, "snapshot i/o error: {message}"),
        }
    }
}

impl std::error::Error for RdfError {}

impl RdfError {
    /// Convenience constructor for syntax errors.
    pub fn syntax(line: usize, message: impl Into<String>) -> Self {
        RdfError::Syntax {
            line,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = RdfError::syntax(3, "unexpected '.'");
        assert_eq!(e.to_string(), "syntax error at line 3: unexpected '.'");
        let e = RdfError::UnknownPrefix {
            line: 7,
            prefix: "ex".into(),
        };
        assert_eq!(e.to_string(), "unknown prefix 'ex:' at line 7");
        assert_eq!(RdfError::UnknownTerm(9).to_string(), "unknown term id 9");
        assert_eq!(
            RdfError::TermCapacity.to_string(),
            "interner full: u32::MAX distinct terms reached"
        );
    }
}
