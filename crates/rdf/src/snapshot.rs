//! Persistent dictionary-encoded snapshots of a [`Graph`].
//!
//! A snapshot is the natural on-disk serialization of the store's interned,
//! sorted indexes: the term dictionary in interning order (so every
//! [`TermId`] survives a round-trip unchanged), each of the three two-level
//! indexes in its frozen compressed-sparse-row form (see
//! `crate::graph::FrozenIndex`), the incrementally maintained
//! [`PredicateStats`], and both tables of the full-text index (see
//! `crate::text::FrozenTable`). Loading is a handful of large sequential
//! array reads — no string re-parsing, no per-triple hash-map or `Vec`
//! allocation, no sorting, no re-tokenising: the writer already laid every
//! index out in exactly the form the evaluator reads. The one table
//! rebuilt is the interner's id-only hash table (a slot array is as costly
//! to check as to rebuild). That is what makes a snapshot load several
//! times faster than regenerating the dataset it caches.
//!
//! Both directions stream one section at a time, so neither holds the
//! whole file beside the graph. The writer encodes each section into one
//! reused buffer and writes it, framed, through a `BufWriter`; the loader
//! reads each section from the open file into a buffer of its own, checks
//! and decodes it, and frees the buffer before reading the next. A
//! transient is at most one section, not the file — at 90M triples the
//! difference is gigabytes.
//!
//! ## File layout (version 3, all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "RE2XSNAP"
//! version    u32
//! key        u32 length + UTF-8 bytes   (dataset identity, checked on load)
//! counts     4 × u64: terms, triples, predicates, indexed literals
//! section ×7          dictionary, spo, pos, osp, stats, text exact, text tokens
//!   length   u64      payload bytes
//!   payload  …
//!   checksum u64      FNV-1a over 8-byte LE words of the payload
//!                     (zero-padded tail, length mixed into the seed)
//! ```
//!
//! Each index section holds one frozen index as five flat `u32` arrays:
//!
//! ```text
//! counts     3 × u64: outer keys, inner keys, postings
//! outer ids  u32 × outer   term ids, strictly ascending
//! outer ends u32 × outer   exclusive end offsets into the inner arrays
//! inner ids  u32 × inner   term ids, strictly ascending per outer run
//! inner ends u32 × inner   exclusive end offsets into the postings
//! postings   u32 × post    term ids, strictly ascending per inner run
//! ```
//!
//! Each text section holds one string-keyed table (normalized form → the
//! literals spelling it; token → the literals containing it):
//!
//! ```text
//! counts     3 × u64: keys, key bytes, postings
//! key ends   u32 × keys    exclusive end offsets into the key bytes
//! id ends    u32 × keys    exclusive end offsets into the postings
//! postings   u32 × post    term ids, strictly ascending per key
//! key bytes  u8 × bytes    the keys, strictly ascending in byte order
//! ```
//!
//! Every decode error is a typed [`RdfError`] — truncated files, foreign
//! magic, unsupported versions, checksum mismatches and internally
//! inconsistent payloads all fail loudly without panicking, so a corrupt
//! cache entry degrades to regeneration instead of poisoning the process.
//! Each index section is re-validated structurally on load (ascending
//! runs, exact offsets, in-range ids, posting count equal to the header's
//! triple count); agreement *between* the three indexes is a writer
//! invariant guarded by the checksums, the round-trip property suite and
//! the digest comparison in the scale experiment. The text sections are
//! held to full agreement with the dictionary instead, because a wrong
//! keyword hit would be silent: every exact posting is a literal listed
//! once, under a key equal to its normalized lexical form (checked by a
//! streaming, allocation-free tokeniser); every token posting is such a
//! literal, the token a word of its key; and the token postings number
//! exactly the distinct words summed over the indexed literals — so the
//! token table is precisely the one the exact table implies, and a
//! checksum-valid but inconsistent file is [`RdfError::SnapshotCorrupt`],
//! never a wrong index. No string is re-hashed or allocated to check it.

use crate::error::RdfError;
use crate::graph::{FrozenIndex, Graph, PredicateStats};
use crate::hash::FxHashMap;
use crate::interner::{Interner, TermId};
use crate::partition::Partitioned;
use crate::term::{Literal, Term};
use crate::text::{normalizes_to, words, FrozenTable, FrozenText, TextIndex};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RE2XSNAP";
/// Current format version; bump on any incompatible layout change.
/// Version 2 replaced the delta-varint triple stream with the three frozen
/// index sections, trading ~2× file size for a zero-allocation load path.
/// Version 3 stores the text index's two tables in place of v2's list of
/// indexed literals, so a load stops re-tokenising every literal.
pub const SNAPSHOT_VERSION: u32 = 3;

const SECTION_DICTIONARY: &str = "dictionary";
const SECTION_SPO: &str = "spo";
const SECTION_POS: &str = "pos";
const SECTION_OSP: &str = "osp";
const SECTION_STATS: &str = "stats";
const SECTION_TEXT_EXACT: &str = "text exact";
const SECTION_TEXT_TOKENS: &str = "text tokens";

// Term tags in the dictionary section.
const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_LITERAL_SIMPLE: u8 = 2;
const TAG_LITERAL_TYPED: u8 = 3;
const TAG_LITERAL_TAGGED: u8 = 4;

/// Section checksum: FNV-1a folded over 8-byte little-endian words (the
/// tail zero-padded, the length mixed into the seed so padding cannot be
/// confused with content). Word-at-a-time keeps verification ~8× faster
/// than the byte-serial fold at the same error-detection strength for the
/// random corruption this guards against — on a 90M-triple snapshot the
/// checksums cover gigabytes.
fn section_checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn io_err(path: &Path, e: &std::io::Error) -> RdfError {
    RdfError::Io(format!("{}: {e}", path.display()))
}

// ---- decoding ------------------------------------------------------------

/// Bounds-checked cursor over a snapshot buffer. Every read reports the
/// section it happened in so truncation errors say *where* the file ended.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
        }
    }

    fn truncated(&self) -> RdfError {
        RdfError::SnapshotTruncated {
            section: self.section.to_owned(),
            offset: self.pos,
        }
    }

    fn corrupt(&self, message: impl Into<String>) -> RdfError {
        RdfError::SnapshotCorrupt {
            section: self.section.to_owned(),
            message: message.into(),
        }
    }

    fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RdfError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, RdfError> {
        let byte = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(byte)
    }

    fn u64_le(&mut self) -> Result<u64, RdfError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(u64::from_le_bytes(bytes))
    }

    fn varint(&mut self) -> Result<u64, RdfError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(self.corrupt("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> Result<&'a str, RdfError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| self.corrupt("string length overflow"))?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    fn term_id(&mut self, raw: u64, term_count: usize) -> Result<TermId, RdfError> {
        let id = u32::try_from(raw).map_err(|_| self.corrupt("term id overflows u32"))?;
        if (id as usize) >= term_count {
            return Err(self.corrupt(format!("term id {id} out of range ({term_count} terms)")));
        }
        Ok(TermId(id))
    }
}

/// A snapshot read front to back from any reader of known length — the
/// open file, or a byte slice in the unit tests. A length read from the
/// file is checked against the bytes left *before* anything is allocated
/// for it, so a corrupt length is [`RdfError::SnapshotTruncated`], never a
/// huge allocation; a read past the end is truncated too.
struct Source<R> {
    inner: R,
    /// Bytes read so far: the file offset of the next read.
    pos: u64,
    len: u64,
    section: &'static str,
}

impl<R: Read> Source<R> {
    fn new(inner: R, len: u64) -> Self {
        Source {
            inner,
            pos: 0,
            len,
            section: "header",
        }
    }

    fn truncated(&self) -> RdfError {
        RdfError::SnapshotTruncated {
            section: self.section.to_owned(),
            offset: usize::try_from(self.pos).unwrap_or(usize::MAX),
        }
    }

    fn corrupt(&self, message: impl Into<String>) -> RdfError {
        RdfError::SnapshotCorrupt {
            section: self.section.to_owned(),
            message: message.into(),
        }
    }

    /// Fills `buf` with the next bytes.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), RdfError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => self.truncated(),
            _ => RdfError::Io(e.to_string()),
        })?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    /// The next `n` bytes, in a buffer of their own — allocated only once
    /// `n` is known to fit in what is left.
    fn bytes(&mut self, n: u64) -> Result<Vec<u8>, RdfError> {
        // saturating: a file that grew since its length was read has
        // `pos` past `len`
        if n > self.len.saturating_sub(self.pos) {
            return Err(self.truncated());
        }
        let mut buf = vec![0; usize::try_from(n).map_err(|_| self.truncated())?];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u32_le(&mut self) -> Result<u32, RdfError> {
        let mut bytes = [0u8; 4];
        self.fill(&mut bytes)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64_le(&mut self) -> Result<u64, RdfError> {
        let mut bytes = [0u8; 8];
        self.fill(&mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads one framed section, verifying its checksum: the payload, in a
    /// buffer the caller frees once it is decoded.
    fn section(&mut self, section: &'static str) -> Result<Vec<u8>, RdfError> {
        self.section = section;
        let len = self.u64_le()?;
        let payload = self.bytes(len)?;
        let stored = self.u64_le()?;
        if section_checksum(&payload) != stored {
            return Err(RdfError::SnapshotChecksum {
                section: section.to_owned(),
            });
        }
        Ok(payload)
    }
}

// ---- header --------------------------------------------------------------

struct Header {
    key: String,
    term_count: usize,
    triple_count: usize,
    pred_count: usize,
    text_count: usize,
}

/// Reads the magic, the version and the embedded key.
fn read_key<R: Read>(src: &mut Source<R>) -> Result<String, RdfError> {
    let mut magic = [0u8; 8];
    src.fill(&mut magic)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RdfError::SnapshotBadMagic);
    }
    let version = src.u32_le()?;
    if version != SNAPSHOT_VERSION {
        return Err(RdfError::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let key_len = src.u32_le()?;
    let key = src.bytes(u64::from(key_len))?;
    String::from_utf8(key).map_err(|_| src.corrupt("snapshot key is not valid UTF-8"))
}

/// Reads the whole header: the key, then the four counts.
fn read_header<R: Read>(src: &mut Source<R>) -> Result<Header, RdfError> {
    let key = read_key(src)?;
    let mut count = || {
        let raw = src.u64_le()?;
        usize::try_from(raw).map_err(|_| src.corrupt("count overflows usize"))
    };
    Ok(Header {
        key,
        term_count: count()?,
        triple_count: count()?,
        pred_count: count()?,
        text_count: count()?,
    })
}

/// Reads just the header of a snapshot file and returns its embedded key —
/// how the cache layer decides whether an on-disk artifact matches the
/// dataset it is about to serve, without paying for a full load.
pub fn peek_snapshot_key(path: &Path) -> Result<String, RdfError> {
    let file = File::open(path).map_err(|e| io_err(path, &e))?;
    let len = file.metadata().map_err(|e| io_err(path, &e))?.len();
    read_key(&mut Source::new(file, len))
}

// ---- encoding ------------------------------------------------------------

fn encode_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(TAG_IRI);
            push_str(out, iri);
        }
        Term::BlankNode(label) => {
            out.push(TAG_BLANK);
            push_str(out, label);
        }
        Term::Literal(lit) => match (lit.datatype(), lit.language()) {
            (Some(dt), _) => {
                out.push(TAG_LITERAL_TYPED);
                push_str(out, lit.lexical());
                push_str(out, dt);
            }
            (None, Some(lang)) => {
                out.push(TAG_LITERAL_TAGGED);
                push_str(out, lit.lexical());
                push_str(out, lang);
            }
            (None, None) => {
                out.push(TAG_LITERAL_SIMPLE);
                push_str(out, lit.lexical());
            }
        },
    }
}

fn decode_term(r: &mut Reader<'_>) -> Result<Term, RdfError> {
    let tag = r.u8()?;
    match tag {
        TAG_IRI => Ok(Term::iri(r.string()?)),
        TAG_BLANK => Ok(Term::blank(r.string()?)),
        TAG_LITERAL_SIMPLE => Ok(Term::Literal(Literal::simple(r.string()?))),
        TAG_LITERAL_TYPED => {
            let lexical = r.string()?.to_owned();
            let datatype = r.string()?;
            Ok(Term::Literal(Literal::typed(lexical, datatype)))
        }
        TAG_LITERAL_TAGGED => {
            let lexical = r.string()?.to_owned();
            let language = r.string()?;
            Ok(Term::Literal(Literal::tagged(lexical, language)))
        }
        other => Err(r.corrupt(format!("unknown term tag {other}"))),
    }
}

/// Serializes one frozen index as the fixed-width array layout above.
fn encode_index(index: &FrozenIndex, out: &mut Vec<u8>) {
    for count in [
        index.outer_ids.len(),
        index.inner_ids.len(),
        index.postings.len(),
    ] {
        out.extend_from_slice(&(count as u64).to_le_bytes());
    }
    for id in &index.outer_ids {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    for end in &index.outer_ends {
        out.extend_from_slice(&end.to_le_bytes());
    }
    for id in &index.inner_ids {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    for end in &index.inner_ends {
        out.extend_from_slice(&end.to_le_bytes());
    }
    for id in &index.postings {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
}

/// `true` if every element is strictly larger than its predecessor.
fn strictly_ascending(ids: &[TermId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// One little-endian `u32` from a 4-byte chunk.
fn le_u32(chunk: &[u8]) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(chunk);
    u32::from_le_bytes(bytes)
}

/// Reads `n` term ids, each validated against the dictionary size.
fn read_id_array(r: &mut Reader<'_>, n: usize, term_count: usize) -> Result<Vec<TermId>, RdfError> {
    let raw = r.take(n.checked_mul(4).ok_or_else(|| r.truncated())?)?;
    let mut out = Vec::with_capacity(n);
    for chunk in raw.chunks_exact(4) {
        let id = le_u32(chunk);
        if (id as usize) >= term_count {
            return Err(r.corrupt(format!("term id {id} out of range ({term_count} terms)")));
        }
        out.push(TermId(id));
    }
    Ok(out)
}

/// Reads `n` exclusive end offsets: strictly increasing from an implicit 0
/// (so every run is non-empty), the last equal to `total`.
fn read_end_array(r: &mut Reader<'_>, n: usize, total: usize) -> Result<Vec<u32>, RdfError> {
    let raw = r.take(n.checked_mul(4).ok_or_else(|| r.truncated())?)?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u32;
    for chunk in raw.chunks_exact(4) {
        let end = le_u32(chunk);
        if end <= prev && !(out.is_empty() && end == 0 && total == 0) {
            return Err(r.corrupt("offsets are not strictly increasing"));
        }
        prev = end;
        out.push(end);
    }
    let last = out.last().map_or(0, |&e| e as usize);
    if last != total {
        return Err(r.corrupt(format!("offsets end at {last}, expected {total}")));
    }
    Ok(out)
}

/// Reads a section's three leading counts — each must fit a `u32` offset
/// — and checks the payload is exactly `24 + Σ count × bytes_per` bytes
/// before any array is allocated, so a corrupt count can never force a
/// huge speculative allocation.
fn read_counts(r: &mut Reader<'_>, bytes_per: [usize; 3]) -> Result<[usize; 3], RdfError> {
    let mut counts = [0usize; 3];
    for slot in &mut counts {
        let raw = r.u64_le()?;
        *slot = u32::try_from(raw)
            .ok()
            .map(|v| v as usize)
            .ok_or_else(|| r.corrupt("count overflows u32"))?;
    }
    let expected = counts
        .iter()
        .zip(bytes_per)
        .try_fold(24usize, |acc, (&n, per)| {
            n.checked_mul(per).and_then(|b| acc.checked_add(b))
        })
        .ok_or_else(|| r.corrupt("counts overflow"))?;
    if r.buf.len() != expected {
        return Err(r.corrupt(format!(
            "section holds {} bytes, its counts promise {expected}",
            r.buf.len()
        )));
    }
    Ok(counts)
}

/// Reads and fully validates one frozen-index section.
fn read_index_section<R: Read>(
    src: &mut Source<R>,
    section: &'static str,
    term_count: usize,
    triple_count: usize,
) -> Result<FrozenIndex, RdfError> {
    let payload = src.section(section)?;
    let mut r = Reader::new(&payload, section);
    // outer ids + ends, inner ids + ends, postings
    let [outer_count, inner_count, posting_count] = read_counts(&mut r, [8, 8, 4])?;
    if posting_count != triple_count {
        return Err(r.corrupt(format!(
            "index covers {posting_count} postings, header promised {triple_count} triples"
        )));
    }
    let outer_ids = read_id_array(&mut r, outer_count, term_count)?;
    let outer_ends = read_end_array(&mut r, outer_count, inner_count)?;
    let inner_ids = read_id_array(&mut r, inner_count, term_count)?;
    let inner_ends = read_end_array(&mut r, inner_count, posting_count)?;
    let postings = read_id_array(&mut r, posting_count, term_count)?;
    if !strictly_ascending(&outer_ids) {
        return Err(r.corrupt("outer keys are not strictly increasing"));
    }
    let mut start = 0usize;
    for &end in &outer_ends {
        if !strictly_ascending(&inner_ids[start..end as usize]) {
            return Err(r.corrupt("inner keys are not strictly increasing within a run"));
        }
        start = end as usize;
    }
    let mut start = 0usize;
    for &end in &inner_ends {
        if !strictly_ascending(&postings[start..end as usize]) {
            return Err(r.corrupt("postings are not strictly increasing within a run"));
        }
        start = end as usize;
    }
    Ok(FrozenIndex {
        outer_ids,
        outer_ends,
        inner_ids,
        inner_ends,
        postings,
    })
}

/// Serializes one text table as the layout above.
fn encode_table(table: &FrozenTable, out: &mut Vec<u8>) {
    for count in [table.len(), table.key_bytes.len(), table.ids.len()] {
        out.extend_from_slice(&(count as u64).to_le_bytes());
    }
    for end in table.key_ends.iter().chain(&table.id_ends) {
        out.extend_from_slice(&end.to_le_bytes());
    }
    for id in &table.ids {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    out.extend_from_slice(&table.key_bytes);
}

/// Reads one text table, validated structurally: exact offsets, in-range
/// ids, non-empty strictly ascending runs, strictly ascending keys.
/// Agreement with the dictionary is [`validate_text`]'s.
fn read_table_section<R: Read>(
    src: &mut Source<R>,
    section: &'static str,
    term_count: usize,
) -> Result<FrozenTable, RdfError> {
    let payload = src.section(section)?;
    let mut r = Reader::new(&payload, section);
    // key ends + id ends, key bytes, postings
    let [key_count, byte_count, posting_count] = read_counts(&mut r, [8, 1, 4])?;
    // Key ends only ascend: the first key may be empty (a zero-token
    // literal's normalized form); strict key order rules out a second.
    let key_ends: Vec<u32> = r.take(key_count * 4)?.chunks_exact(4).map(le_u32).collect();
    if key_ends.windows(2).any(|w| w[0] > w[1])
        || key_ends.last().map_or(0, |&e| e as usize) != byte_count
    {
        return Err(r.corrupt("key offsets do not ascend to the end of the key bytes"));
    }
    let id_ends = read_end_array(&mut r, key_count, posting_count)?;
    let ids = read_id_array(&mut r, posting_count, term_count)?;
    let key_bytes = r.take(byte_count)?.to_vec();
    let table = FrozenTable {
        key_bytes,
        key_ends,
        id_ends,
        ids,
    };
    if (1..table.len()).any(|k| table.key(k - 1) >= table.key(k)) {
        return Err(r.corrupt("keys are not strictly increasing"));
    }
    if (0..table.len()).any(|k| !strictly_ascending(table.ids_at(k))) {
        return Err(r.corrupt("postings are not strictly increasing within a key"));
    }
    Ok(table)
}

/// Holds the two text tables to full agreement with the dictionary (the
/// module docs' contract): every exact posting is a literal listed once,
/// under its normalized form; every token posting is an indexed literal
/// whose key has the token as a word; and the token postings number the
/// distinct words summed over the indexed literals, so no (token, literal)
/// pair is missing either.
fn validate_text(text: &FrozenText, interner: &Interner, indexed: usize) -> Result<(), RdfError> {
    let corrupt = |section: &str, message: String| RdfError::SnapshotCorrupt {
        section: section.to_owned(),
        message,
    };
    let exact = &text.exact;
    if exact.ids.len() != indexed {
        return Err(corrupt(
            SECTION_TEXT_EXACT,
            format!(
                "table holds {} literals, header promised {indexed}",
                exact.ids.len()
            ),
        ));
    }
    // The exact key each literal is indexed under, by term id.
    const UNINDEXED: u32 = u32::MAX;
    let mut key_of = vec![UNINDEXED; interner.len()];
    let mut distinct: Vec<&[u8]> = Vec::new();
    let mut word_postings = 0usize;
    for k in 0..exact.len() {
        let ids = exact.ids_at(k);
        for &id in ids {
            if std::mem::replace(&mut key_of[id.index()], k as u32) != UNINDEXED {
                return Err(corrupt(
                    SECTION_TEXT_EXACT,
                    format!("literal {} is listed under two keys", id.0),
                ));
            }
        }
        distinct.clear();
        distinct.extend(words(exact.key(k)));
        distinct.sort_unstable();
        distinct.dedup();
        word_postings += distinct.len() * ids.len();
    }
    // In id order, so the term table is read front to back.
    for (id, &k) in key_of.iter().enumerate() {
        if k == UNINDEXED {
            continue;
        }
        let Some(literal) = interner.resolve(TermId(id as u32)).as_literal() else {
            return Err(corrupt(
                SECTION_TEXT_EXACT,
                format!("text id {id} is not a literal"),
            ));
        };
        if !normalizes_to(exact.key(k as usize), literal.lexical()) {
            return Err(corrupt(
                SECTION_TEXT_EXACT,
                format!("literal {id} is listed under a key it does not normalize to"),
            ));
        }
    }
    let tokens = &text.tokens;
    for t in 0..tokens.len() {
        let token = tokens.key(t);
        for &id in tokens.ids_at(t) {
            let k = key_of[id.index()];
            if k == UNINDEXED {
                return Err(corrupt(
                    SECTION_TEXT_TOKENS,
                    format!("term {} is not an indexed literal", id.0),
                ));
            }
            if !words(exact.key(k as usize)).any(|w| w == token) {
                return Err(corrupt(
                    SECTION_TEXT_TOKENS,
                    format!("a token is not a word of literal {}", id.0),
                ));
            }
        }
    }
    if tokens.ids.len() != word_postings {
        return Err(corrupt(
            SECTION_TEXT_TOKENS,
            format!(
                "table holds {} postings, the indexed literals have {word_postings} distinct words",
                tokens.ids.len()
            ),
        ));
    }
    Ok(())
}

/// Writes one framed section (length, payload, FNV-1a checksum), the
/// payload encoded by `encode` into `buf` — cleared first, so one buffer
/// serves every section and grows only to the largest.
fn write_section(
    out: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<()> {
    buf.clear();
    encode(buf);
    out.write_all(&(buf.len() as u64).to_le_bytes())?;
    out.write_all(buf)?;
    out.write_all(&section_checksum(buf).to_le_bytes())
}

impl Graph {
    /// Writes the graph to `path` as a versioned binary snapshot stamped
    /// with `key` (the dataset identity the loader verifies).
    ///
    /// The file is streamed a section at a time through a `BufWriter`, so
    /// the write holds at most one section beside the graph. A crash
    /// mid-write leaves a truncated file the loader rejects with a typed
    /// error rather than a silently short graph.
    pub fn write_snapshot(&self, path: &Path, key: &str) -> Result<(), RdfError> {
        if u32::try_from(self.len()).is_err() {
            return Err(RdfError::Io(format!(
                "graph holds {} triples; snapshot offsets are u32",
                self.len()
            )));
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, &e))?;
            }
        }
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        let mut out = BufWriter::new(file);
        self.encode_snapshot(key, &mut out)
            .and_then(|()| out.flush())
            .map_err(|e| io_err(path, &e))
    }

    /// Writes the bytes of [`Graph::write_snapshot`]'s file to `out`.
    fn encode_snapshot(&self, key: &str, out: &mut impl Write) -> std::io::Result<()> {
        // the text index's two tables, as one base — its own while the
        // overlay is empty, built by one merge per table otherwise. Only
        // the literals *currently* indexed are in it (removal orphans
        // literals out of the index, and a snapshot preserves that state).
        let text = self.text.freeze_view();

        out.write_all(&SNAPSHOT_MAGIC)?;
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_all(&(key.len() as u32).to_le_bytes())?;
        out.write_all(key.as_bytes())?;
        for count in [
            self.interner.len(),
            self.len(),
            self.pred_stats.len(),
            text.exact.ids.len(),
        ] {
            out.write_all(&(count as u64).to_le_bytes())?;
        }
        let mut buf = Vec::new();
        // dictionary: terms in interning order, so ids round-trip.
        write_section(out, &mut buf, |buf| {
            for (_, term) in self.interner.iter() {
                encode_term(buf, term);
            }
        })?;
        // the three indexes as one base each — the graph's own while its
        // overlay is empty, built by one merging sweep otherwise.
        for index in [&self.spo, &self.pos, &self.osp] {
            write_section(out, &mut buf, |buf| encode_index(&index.freeze_view(), buf))?;
        }
        // predicate statistics, sorted by predicate id.
        write_section(out, &mut buf, |buf| {
            let mut preds: Vec<TermId> = self.pred_stats.keys().copied().collect();
            preds.sort_unstable();
            let mut prev_p = 0u64;
            for p in &preds {
                let st = self.pred_stats.get(p).copied().unwrap_or_default();
                push_varint(buf, u64::from(p.0) - prev_p);
                prev_p = u64::from(p.0);
                push_varint(buf, st.triples as u64);
                push_varint(buf, st.distinct_subjects as u64);
                push_varint(buf, st.distinct_objects as u64);
            }
        })?;
        write_section(out, &mut buf, |buf| encode_table(&text.exact, buf))?;
        write_section(out, &mut buf, |buf| encode_table(&text.tokens, buf))
    }

    /// Loads a snapshot written by [`Graph::write_snapshot`].
    ///
    /// With `expected_key = Some(k)`, a snapshot stamped with a different
    /// key fails with [`RdfError::SnapshotKeyMismatch`] — stale cache
    /// entries are rejected, never trusted. The three indexes and the text
    /// index come back as `Arc`-shared bases straight from the section
    /// arrays; the per-term work in the whole load is decoding the
    /// dictionary, hashing each term once into the interner's id table,
    /// and checking each indexed literal's normalized form.
    pub fn load_snapshot(path: &Path, expected_key: Option<&str>) -> Result<Graph, RdfError> {
        let file = File::open(path).map_err(|e| io_err(path, &e))?;
        let len = file.metadata().map_err(|e| io_err(path, &e))?.len();
        Graph::decode_snapshot(file, len, expected_key)
    }

    /// The graph [`Graph::load_snapshot`] loads from the `len` bytes
    /// `inner` reads, one section at a time: each section's buffer is
    /// freed once it is decoded.
    fn decode_snapshot(
        inner: impl Read,
        len: u64,
        expected_key: Option<&str>,
    ) -> Result<Graph, RdfError> {
        let mut src = Source::new(inner, len);
        let header = read_header(&mut src)?;
        if let Some(expected) = expected_key {
            if header.key != expected {
                return Err(RdfError::SnapshotKeyMismatch {
                    expected: expected.to_owned(),
                    found: header.key,
                });
            }
        }

        // dictionary → interner, its section freed before the id table
        // is built.
        let terms = {
            let payload = src.section(SECTION_DICTIONARY)?;
            let mut dict = Reader::new(&payload, SECTION_DICTIONARY);
            // Capacity from the payload, not the header count, so a corrupt
            // count cannot force a huge allocation before validation.
            let mut terms: Vec<Term> = Vec::with_capacity(header.term_count.min(payload.len()));
            while !dict.is_done() {
                terms.push(decode_term(&mut dict)?);
            }
            if terms.len() != header.term_count {
                return Err(dict.corrupt(format!(
                    "dictionary holds {} terms, header promised {}",
                    terms.len(),
                    header.term_count
                )));
            }
            terms
        };
        let interner = Interner::from_terms(terms).ok_or_else(|| RdfError::SnapshotCorrupt {
            section: SECTION_DICTIONARY.to_owned(),
            message: "duplicate term in dictionary".to_owned(),
        })?;
        let term_count = interner.len();

        // the three frozen indexes, each validated independently.
        let spo = read_index_section(&mut src, SECTION_SPO, term_count, header.triple_count)?;
        let pos = read_index_section(&mut src, SECTION_POS, term_count, header.triple_count)?;
        let osp = read_index_section(&mut src, SECTION_OSP, term_count, header.triple_count)?;

        // predicate statistics.
        let stats = src.section(SECTION_STATS)?;
        let mut st = Reader::new(&stats, SECTION_STATS);
        let mut pred_stats: FxHashMap<TermId, PredicateStats> = FxHashMap::default();
        let mut prev_p = 0u64;
        let mut first_p = true;
        let mut stat_triples = 0usize;
        while !st.is_done() {
            let delta_p = st.varint()?;
            if !first_p && delta_p == 0 {
                return Err(st.corrupt("stat predicates are not strictly increasing"));
            }
            first_p = false;
            let raw_p = prev_p
                .checked_add(delta_p)
                .ok_or_else(|| st.corrupt("stat predicate id overflow"))?;
            prev_p = raw_p;
            let p = st.term_id(raw_p, term_count)?;
            let triples = usize::try_from(st.varint()?)
                .map_err(|_| st.corrupt("stat count overflows usize"))?;
            let distinct_subjects = usize::try_from(st.varint()?)
                .map_err(|_| st.corrupt("stat count overflows usize"))?;
            let distinct_objects = usize::try_from(st.varint()?)
                .map_err(|_| st.corrupt("stat count overflows usize"))?;
            stat_triples = stat_triples
                .checked_add(triples)
                .ok_or_else(|| st.corrupt("stat totals overflow"))?;
            pred_stats.insert(
                p,
                PredicateStats {
                    triples,
                    distinct_subjects,
                    distinct_objects,
                },
            );
        }
        if pred_stats.len() != header.pred_count {
            return Err(st.corrupt(format!(
                "stats section holds {} predicates, header promised {}",
                pred_stats.len(),
                header.pred_count
            )));
        }
        // Cross-check: the incremental stats must account for exactly the
        // triples every index section was validated to hold.
        if stat_triples != header.triple_count {
            return Err(st.corrupt(format!(
                "predicate stats cover {stat_triples} triples but the graph holds {}",
                header.triple_count
            )));
        }

        // the text index's base, straight from its two tables.
        let text = FrozenText {
            exact: read_table_section(&mut src, SECTION_TEXT_EXACT, term_count)?,
            tokens: read_table_section(&mut src, SECTION_TEXT_TOKENS, term_count)?,
        };
        validate_text(&text, &interner, header.text_count)?;

        Ok(Graph::from_snapshot_parts(
            Arc::new(interner),
            spo,
            pos,
            osp,
            header.triple_count,
            pred_stats,
            TextIndex::from_base(Arc::new(text)),
        ))
    }
}

// ---- shard artifacts -----------------------------------------------------

/// The key a shard snapshot is stamped with: the parent dataset key plus
/// the shard's position, so a shard file can never be confused with a
/// different shard count's artifact.
pub fn shard_snapshot_key(base_key: &str, shard: usize, shards: usize) -> String {
    format!("{base_key}/shard-{shard}-of-{shards}")
}

impl Partitioned {
    /// Writes one snapshot per shard into `dir` (`shard-<i>-of-<n>.snap`),
    /// each stamped with [`shard_snapshot_key`]. Returns the paths written.
    pub fn write_shard_snapshots(
        &self,
        dir: &Path,
        base_key: &str,
    ) -> Result<Vec<PathBuf>, RdfError> {
        let shards = self.shards.len();
        let mut paths = Vec::with_capacity(shards);
        for (i, shard) in self.shards.iter().enumerate() {
            let path = dir.join(format!("shard-{i}-of-{shards}.snap"));
            shard.write_snapshot(&path, &shard_snapshot_key(base_key, i, shards))?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Loads one shard written by [`Partitioned::write_shard_snapshots`],
/// verifying it is the `shard`-th of `shards` artifacts of `base_key`.
pub fn load_shard_snapshot(
    path: &Path,
    base_key: &str,
    shard: usize,
    shards: usize,
) -> Result<Graph, RdfError> {
    Graph::load_snapshot(path, Some(&shard_snapshot_key(base_key, shard, shards)))
}

// ---- identity digest -----------------------------------------------------

/// An order-independent content digest of a graph: FNV-1a over the term
/// dictionary in interning order followed by the sorted triple stream.
///
/// Two graphs with the same digest hold the same terms (in the same
/// interning order, so ids are interchangeable) and the same triples —
/// the identity check the scale experiment uses where serializing 90M
/// triples to text for comparison would be infeasible.
pub fn graph_digest(graph: &Graph) -> u64 {
    let mut buf = Vec::with_capacity(64);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, term) in graph.interner().iter() {
        buf.clear();
        encode_term(&mut buf, term);
        hash = fnv1a_fold(hash, &buf);
    }
    for triple in graph.iter_sorted() {
        let mut bytes = [0u8; 12];
        bytes[0..4].copy_from_slice(&triple.s.0.to_le_bytes());
        bytes[4..8].copy_from_slice(&triple.p.0.to_le_bytes());
        bytes[8..12].copy_from_slice(&triple.o.0.to_le_bytes());
        hash = fnv1a_fold(hash, &bytes);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions of the two text sections among the seven.
    const EXACT: usize = 5;
    const TOKENS: usize = 6;

    /// A text table as editable `(key, postings)` entries.
    type Entries = Vec<(Vec<u8>, Vec<TermId>)>;

    fn entries(table: &FrozenTable) -> Entries {
        (0..table.len())
            .map(|k| (table.key(k).to_vec(), table.ids_at(k).to_vec()))
            .collect()
    }

    /// The text section of `entries`, keys in the order given.
    fn encoded(entries: &Entries) -> Vec<u8> {
        let mut table = FrozenTable::default();
        for (key, ids) in entries {
            table.push(key, ids);
        }
        let mut out = Vec::new();
        encode_table(&table, &mut out);
        out
    }

    fn literal(g: &Graph, lexical: &str) -> TermId {
        g.term_id(&Term::from(Literal::simple(lexical)))
            .expect("interned")
    }

    /// Shared tokens, a zero-token literal (exact key `""`), a tagged and
    /// a non-ASCII literal (`İ` lowercases to two chars), and a literal
    /// orphaned out of the index by a removal.
    fn sample() -> Graph {
        let mut g = Graph::new();
        let s = g.intern_iri("http://ex/s");
        let p = g.intern_iri("http://ex/label");
        for lexical in [
            "Germany",
            "October 2014",
            "2014",
            "—",
            "İstanbul 2014",
            "orphan 2014",
        ] {
            let o = g.intern_literal(Literal::simple(lexical));
            g.insert_ids(s, p, o);
        }
        let o = g.intern_literal(Literal::tagged("Straße", "de"));
        g.insert_ids(s, p, o);
        assert!(g.remove_ids(s, p, literal(&g, "orphan 2014")));
        g
    }

    /// `bytes` with section `n`'s payload replaced and re-framed (length
    /// and checksum recomputed), so only the loader's own checks can
    /// catch what the payload gets wrong.
    fn with_section(bytes: &[u8], n: usize, payload: &[u8]) -> Vec<u8> {
        let mut src = Source::new(bytes, bytes.len() as u64);
        read_header(&mut src).expect("header");
        let mut out = bytes[..src.pos as usize].to_vec();
        let mut buf = Vec::new();
        for i in 0..7 {
            let old = src.section("test").expect("section");
            let payload = if i == n { payload } else { &old };
            write_section(&mut out, &mut buf, |buf| buf.extend_from_slice(payload)).expect("write");
        }
        out
    }

    /// The graph `bytes` decode to.
    fn decode(bytes: &[u8], expected_key: Option<&str>) -> Result<Graph, RdfError> {
        Graph::decode_snapshot(bytes, bytes.len() as u64, expected_key)
    }

    /// The sample's snapshot and its two text tables.
    fn fixture() -> (Graph, Vec<u8>, Entries, Entries) {
        let g = sample();
        let mut bytes = Vec::new();
        g.encode_snapshot("k", &mut bytes).expect("encode");
        let text = g.text.freeze_view();
        let (exact, tokens) = (entries(&text.exact), entries(&text.tokens));
        (g, bytes, exact, tokens)
    }

    fn entry<'a>(entries: &'a mut Entries, key: &str) -> &'a mut Vec<TermId> {
        let at = entries
            .iter()
            .position(|(k, _)| k == key.as_bytes())
            .expect("key present");
        &mut entries[at].1
    }

    /// Loading `bytes` with section `n` replaced by `entries` fails as
    /// corrupt in that section, for the reason given.
    fn assert_corrupt(bytes: &[u8], n: usize, entries: &Entries, reason: &str) {
        let crafted = with_section(bytes, n, &encoded(entries));
        let section = [SECTION_TEXT_EXACT, SECTION_TEXT_TOKENS][n - EXACT];
        match decode(&crafted, None).err() {
            Some(RdfError::SnapshotCorrupt {
                section: found,
                message,
            }) => {
                assert_eq!(found, section, "{message}");
                assert!(message.contains(reason), "{message:?} lacks {reason:?}");
            }
            other => panic!("expected {section} corrupt ({reason}), got {other:?}"),
        }
    }

    #[test]
    fn text_sections_round_trip_the_index() {
        let (g, bytes, exact, tokens) = fixture();
        // re-framing the writer's own tables changes no byte
        assert_eq!(with_section(&bytes, EXACT, &encoded(&exact)), bytes);
        assert_eq!(with_section(&bytes, TOKENS, &encoded(&tokens)), bytes);
        assert_eq!(exact[0], (Vec::new(), vec![literal(&g, "—")]));
        let loaded = decode(&bytes, Some("k")).expect("load");
        assert_eq!(loaded.text_index().len(), 6);
        for query in [
            "germany",
            "2014",
            "",
            "–",
            "STRASSE",
            "straße",
            "İstanbul",
            "istanbul",
            "orphan",
        ] {
            assert_eq!(
                loaded.literals_matching_exact(query),
                g.literals_matching_exact(query)
            );
            assert_eq!(
                loaded.literals_matching_keywords(query),
                g.literals_matching_keywords(query)
            );
        }
        assert_eq!(loaded.literals_matching_keywords("2014").len(), 3);
    }

    #[test]
    fn a_v2_file_is_a_version_error() {
        let (_, mut bytes, _, _) = fixture();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes, None),
            Err(RdfError::SnapshotVersion {
                found: 2,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn an_exact_key_its_literals_do_not_normalize_to_is_corrupt() {
        let (_, bytes, exact, _) = fixture();
        // `İ` lowercases to `i̇`, never to a plain `i`
        for (from, to) in [
            ("i\u{307}stanbul 2014", "istanbul 2014"),
            ("germany", "germanz"),
            ("straße", "strasse"),
            ("", " "),
            ("october 2014", "october  2014"),
        ] {
            let mut crafted = exact.clone();
            let at = crafted
                .iter()
                .position(|(k, _)| k == from.as_bytes())
                .expect("key present");
            crafted[at].0 = to.as_bytes().to_vec();
            crafted.sort();
            assert_corrupt(&bytes, EXACT, &crafted, "does not normalize to");
        }
    }

    #[test]
    fn exact_postings_must_be_literals_listed_once() {
        let (g, bytes, exact, _) = fixture();
        let subject = g.iri_id("http://ex/s").expect("subject");
        let mut crafted = exact.clone();
        *entry(&mut crafted, "germany") = vec![subject];
        assert_corrupt(&bytes, EXACT, &crafted, "is not a literal");
        // twice, the total kept by dropping another literal
        let mut crafted = exact.clone();
        entry(&mut crafted, "germany").push(literal(&g, "2014"));
        entry(&mut crafted, "germany").sort();
        crafted.remove(0);
        assert_corrupt(&bytes, EXACT, &crafted, "under two keys");
        // fewer than the header's count
        let mut crafted = exact.clone();
        crafted.remove(0);
        assert_corrupt(&bytes, EXACT, &crafted, "header promised");
        // the orphaned literal is not indexed, and may not come back
        let mut crafted = exact;
        crafted.push((b"orphan 2014".to_vec(), vec![literal(&g, "orphan 2014")]));
        crafted.sort();
        assert_corrupt(&bytes, EXACT, &crafted, "header promised");
    }

    #[test]
    fn token_postings_must_be_words_of_indexed_literals() {
        let (g, bytes, _, tokens) = fixture();
        let with = |key: &str, id: TermId| {
            let mut crafted = tokens.clone();
            match crafted.iter().position(|(k, _)| k == key.as_bytes()) {
                Some(at) => {
                    crafted[at].1.push(id);
                    crafted[at].1.sort();
                }
                None => {
                    crafted.push((key.as_bytes().to_vec(), vec![id]));
                    crafted.sort();
                }
            }
            crafted
        };
        let orphan = with("2014", literal(&g, "orphan 2014"));
        assert_corrupt(&bytes, TOKENS, &orphan, "not an indexed literal");
        let subject = with("2014", g.iri_id("http://ex/s").expect("subject"));
        assert_corrupt(&bytes, TOKENS, &subject, "not an indexed literal");
        for (token, lexical) in [
            ("2014", "Germany"),
            ("201", "2014"),
            ("", "—"),
            ("istanbul", "İstanbul 2014"),
            ("october 2014", "October 2014"),
        ] {
            let crafted = with(token, literal(&g, lexical));
            assert_corrupt(&bytes, TOKENS, &crafted, "not a word");
        }
        // a (token, literal) pair left out
        let mut crafted = tokens.clone();
        crafted.retain(|(k, _)| k != b"october");
        assert_corrupt(&bytes, TOKENS, &crafted, "distinct words");
        let mut crafted = tokens;
        entry(&mut crafted, "2014").remove(0);
        assert_corrupt(&bytes, TOKENS, &crafted, "distinct words");
    }

    #[test]
    fn text_tables_must_be_sorted_and_in_range() {
        let (_, bytes, exact, tokens) = fixture();
        for (n, original) in [(EXACT, &exact), (TOKENS, &tokens)] {
            let mut crafted = original.clone();
            crafted.swap(1, 2);
            assert_corrupt(&bytes, n, &crafted, "keys are not strictly increasing");
            let mut crafted = original.clone();
            crafted.insert(1, crafted[1].clone());
            assert_corrupt(&bytes, n, &crafted, "keys are not strictly increasing");
            let mut crafted = original.clone();
            crafted[1].1.push(TermId(9_999));
            assert_corrupt(&bytes, n, &crafted, "out of range");
        }
        let mut crafted = tokens;
        entry(&mut crafted, "2014").reverse();
        assert_corrupt(
            &bytes,
            TOKENS,
            &crafted,
            "postings are not strictly increasing",
        );
    }
}
