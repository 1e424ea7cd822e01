//! Persistent dictionary-encoded snapshots of a [`Graph`].
//!
//! A snapshot is the natural on-disk serialization of the store's interned,
//! sorted indexes: the term dictionary in interning order (so every
//! [`TermId`] survives a round-trip unchanged), each of the three two-level
//! indexes in its frozen compressed-sparse-row form (see
//! `crate::graph::FrozenIndex`), the incrementally maintained
//! [`PredicateStats`], and the exact membership of the full-text index.
//! Loading is a handful of large sequential array reads — no string
//! re-parsing, no per-triple hash-map or `Vec` allocation, no sorting: the
//! writer already laid every index out in exactly the form the evaluator
//! reads. That is what makes a snapshot load several times faster than
//! regenerating the dataset it caches.
//!
//! ## File layout (version 2, all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "RE2XSNAP"
//! version    u32
//! key        u32 length + UTF-8 bytes   (dataset identity, checked on load)
//! counts     4 × u64: terms, triples, predicates, indexed literals
//! section ×6          dictionary, spo, pos, osp, stats, text membership
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
//! Every decode error is a typed [`RdfError`] — truncated files, foreign
//! magic, unsupported versions, checksum mismatches and internally
//! inconsistent payloads all fail loudly without panicking, so a corrupt
//! cache entry degrades to regeneration instead of poisoning the process.
//! Each index section is re-validated structurally on load (ascending
//! runs, exact offsets, in-range ids, posting count equal to the header's
//! triple count); agreement *between* the three indexes is a writer
//! invariant guarded by the checksums, the round-trip property suite and
//! the digest comparison in the scale experiment.

use crate::error::RdfError;
use crate::graph::{FrozenIndex, Graph, PredicateStats};
use crate::hash::FxHashMap;
use crate::interner::{Interner, TermId};
use crate::partition::Partitioned;
use crate::term::{Literal, Term};
use crate::text::TextIndex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RE2XSNAP";
/// Current format version; bump on any incompatible layout change.
/// Version 2 replaced the delta-varint triple stream with the three frozen
/// index sections, trading ~2× file size for a zero-allocation load path.
pub const SNAPSHOT_VERSION: u32 = 2;

const SECTION_DICTIONARY: &str = "dictionary";
const SECTION_SPO: &str = "spo";
const SECTION_POS: &str = "pos";
const SECTION_OSP: &str = "osp";
const SECTION_STATS: &str = "stats";
const SECTION_TEXT: &str = "text";

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

    fn u32_le(&mut self) -> Result<u32, RdfError> {
        let raw = self.take(4)?;
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(raw);
        Ok(u32::from_le_bytes(bytes))
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

// ---- header --------------------------------------------------------------

struct Header {
    key: String,
    term_count: usize,
    triple_count: usize,
    pred_count: usize,
    text_count: usize,
    /// Offset of the first section frame.
    body_start: usize,
}

fn parse_header(buf: &[u8]) -> Result<Header, RdfError> {
    let mut r = Reader::new(buf, "header");
    let magic = r.take(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RdfError::SnapshotBadMagic);
    }
    let version = r.u32_le()?;
    if version != SNAPSHOT_VERSION {
        return Err(RdfError::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let key_len = r.u32_le()? as usize;
    let key_bytes = r.take(key_len)?;
    let key = std::str::from_utf8(key_bytes)
        .map_err(|_| r.corrupt("snapshot key is not valid UTF-8"))?
        .to_owned();
    let counts: [u64; 4] = [r.u64_le()?, r.u64_le()?, r.u64_le()?, r.u64_le()?];
    let as_usize = |v: u64| usize::try_from(v).map_err(|_| r.corrupt("count overflows usize"));
    Ok(Header {
        key,
        term_count: as_usize(counts[0])?,
        triple_count: as_usize(counts[1])?,
        pred_count: as_usize(counts[2])?,
        text_count: as_usize(counts[3])?,
        body_start: r.pos,
    })
}

/// Reads just the header of a snapshot file and returns its embedded key —
/// how the cache layer decides whether an on-disk artifact matches the
/// dataset it is about to serve, without paying for a full load.
pub fn peek_snapshot_key(path: &Path) -> Result<String, RdfError> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path).map_err(|e| io_err(path, &e))?;
    // magic + version + key length + longest key we accept
    let mut buf = vec![0u8; 16 + 4096];
    let mut filled = 0usize;
    loop {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if filled == buf.len() {
                    break;
                }
            }
            Err(e) => return Err(io_err(path, &e)),
        }
    }
    buf.truncate(filled);
    let mut r = Reader::new(&buf, "header");
    let magic = r.take(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(RdfError::SnapshotBadMagic);
    }
    let version = r.u32_le()?;
    if version != SNAPSHOT_VERSION {
        return Err(RdfError::SnapshotVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let key_len = r.u32_le()? as usize;
    let key_bytes = r.take(key_len)?;
    std::str::from_utf8(key_bytes)
        .map(str::to_owned)
        .map_err(|_| r.corrupt("snapshot key is not valid UTF-8"))
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
fn encode_index(index: &FrozenIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        24 + 4 * (2 * index.outer_ids.len() + 2 * index.inner_ids.len() + index.postings.len()),
    );
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
    out
}

/// `true` if every element is strictly larger than its predecessor.
fn strictly_ascending(ids: &[TermId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Reads `n` term ids, each validated against the dictionary size.
fn read_id_array(r: &mut Reader<'_>, n: usize, term_count: usize) -> Result<Vec<TermId>, RdfError> {
    let raw = r.take(n.checked_mul(4).ok_or_else(|| r.truncated())?)?;
    let mut out = Vec::with_capacity(n);
    for chunk in raw.chunks_exact(4) {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(chunk);
        let id = u32::from_le_bytes(bytes);
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
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(chunk);
        let end = u32::from_le_bytes(bytes);
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

/// Reads and fully validates one frozen-index section.
fn read_index_section(
    body: &mut Reader<'_>,
    section: &'static str,
    term_count: usize,
    triple_count: usize,
) -> Result<FrozenIndex, RdfError> {
    let mut r = read_section(body, section)?;
    let mut counts = [0usize; 3];
    for slot in &mut counts {
        let raw = r.u64_le()?;
        *slot = u32::try_from(raw)
            .ok()
            .map(|v| v as usize)
            .ok_or_else(|| r.corrupt("index count overflows u32"))?;
    }
    let [outer_count, inner_count, posting_count] = counts;
    // Exact payload size before any array allocation: a corrupt count can
    // never force a huge speculative allocation.
    let expected = [
        outer_count,
        outer_count,
        inner_count,
        inner_count,
        posting_count,
    ]
    .iter()
    .try_fold(24usize, |acc, &n| {
        n.checked_mul(4).and_then(|b| acc.checked_add(b))
    })
    .ok_or_else(|| r.corrupt("index counts overflow"))?;
    if r.buf.len() != expected {
        return Err(r.corrupt(format!(
            "index section holds {} bytes, its counts promise {expected}",
            r.buf.len()
        )));
    }
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

/// Appends one framed section (length, payload, FNV-1a checksum).
fn push_section(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&section_checksum(payload).to_le_bytes());
}

/// Reads one framed section, verifying its checksum.
fn read_section<'a>(r: &mut Reader<'a>, section: &'static str) -> Result<Reader<'a>, RdfError> {
    r.section = section;
    let len = r.u64_le()?;
    let len = usize::try_from(len).map_err(|_| r.corrupt("section length overflows usize"))?;
    let payload = r.take(len)?;
    let stored = r.u64_le()?;
    if section_checksum(payload) != stored {
        return Err(RdfError::SnapshotChecksum {
            section: section.to_owned(),
        });
    }
    Ok(Reader::new(payload, section))
}

impl Graph {
    /// Writes the graph to `path` as a versioned binary snapshot stamped
    /// with `key` (the dataset identity the loader verifies).
    ///
    /// The write is atomic-ish: the file is assembled in memory and written
    /// in one call, so a crash mid-write leaves a truncated file the loader
    /// rejects with a typed error rather than a silently short graph.
    pub fn write_snapshot(&self, path: &Path, key: &str) -> Result<(), RdfError> {
        if u32::try_from(self.len()).is_err() {
            return Err(RdfError::Io(format!(
                "graph holds {} triples; snapshot offsets are u32",
                self.len()
            )));
        }
        // dictionary: terms in interning order, so ids round-trip.
        let mut dictionary = Vec::with_capacity(self.interner.len() * 24);
        for (_, term) in self.interner.iter() {
            encode_term(&mut dictionary, term);
        }

        // the three indexes as one base each — the graph's own while its
        // overlay is empty, built by one merging sweep otherwise.
        let spo = encode_index(&self.spo.freeze_view());
        let pos = encode_index(&self.pos.freeze_view());
        let osp = encode_index(&self.osp.freeze_view());

        // predicate statistics, sorted by predicate id.
        let mut stats = Vec::with_capacity(self.pred_stats.len() * 8);
        let mut preds: Vec<TermId> = self.pred_stats.keys().copied().collect();
        preds.sort_unstable();
        let mut prev_p = 0u64;
        for p in &preds {
            let st = self.pred_stats.get(p).copied().unwrap_or_default();
            push_varint(&mut stats, u64::from(p.0) - prev_p);
            prev_p = u64::from(p.0);
            push_varint(&mut stats, st.triples as u64);
            push_varint(&mut stats, st.distinct_subjects as u64);
            push_varint(&mut stats, st.distinct_objects as u64);
        }

        // text-index membership: the literals *currently* indexed — not all
        // literals, because removal orphans literals out of the index and a
        // snapshot must preserve that exact state.
        let mut indexed: Vec<TermId> = Vec::with_capacity(self.text.len());
        for (id, term) in self.interner.iter() {
            if let Some(lit) = term.as_literal() {
                if self.text.is_indexed(id, lit.lexical()) {
                    indexed.push(id);
                }
            }
        }
        let mut text = Vec::with_capacity(indexed.len() * 2);
        let mut prev_t = 0u64;
        for id in &indexed {
            push_varint(&mut text, u64::from(id.0) - prev_t);
            prev_t = u64::from(id.0);
        }

        let mut out = Vec::with_capacity(
            32 + key.len()
                + dictionary.len()
                + spo.len()
                + pos.len()
                + osp.len()
                + stats.len()
                + text.len()
                + 96,
        );
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        for count in [
            self.interner.len(),
            self.len(),
            self.pred_stats.len(),
            indexed.len(),
        ] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        push_section(&mut out, &dictionary);
        push_section(&mut out, &spo);
        push_section(&mut out, &pos);
        push_section(&mut out, &osp);
        push_section(&mut out, &stats);
        push_section(&mut out, &text);

        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, &e))?;
            }
        }
        std::fs::write(path, &out).map_err(|e| io_err(path, &e))
    }

    /// Loads a snapshot written by [`Graph::write_snapshot`].
    ///
    /// With `expected_key = Some(k)`, a snapshot stamped with a different
    /// key fails with [`RdfError::SnapshotKeyMismatch`] — stale cache
    /// entries are rejected, never trusted. The three indexes come back as
    /// `Arc`-shared bases straight from the section arrays; the only
    /// per-term work in the whole load is decoding the dictionary and
    /// re-hashing each term once for the interner's reverse map.
    pub fn load_snapshot(path: &Path, expected_key: Option<&str>) -> Result<Graph, RdfError> {
        let buf = std::fs::read(path).map_err(|e| io_err(path, &e))?;
        let header = parse_header(&buf)?;
        if let Some(expected) = expected_key {
            if header.key != expected {
                return Err(RdfError::SnapshotKeyMismatch {
                    expected: expected.to_owned(),
                    found: header.key,
                });
            }
        }
        let mut body = Reader::new(&buf, "header");
        body.pos = header.body_start;

        // dictionary → interner.
        let mut dict = read_section(&mut body, SECTION_DICTIONARY)?;
        // Capacity from the payload, not the header count, so a corrupt
        // count cannot force a huge allocation before validation.
        let mut terms: Vec<Term> = Vec::with_capacity(header.term_count.min(dict.buf.len()));
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
        let interner = Interner::from_terms(terms).ok_or_else(|| RdfError::SnapshotCorrupt {
            section: SECTION_DICTIONARY.to_owned(),
            message: "duplicate term in dictionary".to_owned(),
        })?;
        let term_count = interner.len();

        // the three frozen indexes, each validated independently.
        let spo = read_index_section(&mut body, SECTION_SPO, term_count, header.triple_count)?;
        let pos = read_index_section(&mut body, SECTION_POS, term_count, header.triple_count)?;
        let osp = read_index_section(&mut body, SECTION_OSP, term_count, header.triple_count)?;

        // predicate statistics.
        let mut st = read_section(&mut body, SECTION_STATS)?;
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

        // text membership: rebuild the inverted index from the recorded ids
        // (ascending, so postings are appended in sorted order too).
        let mut tx = read_section(&mut body, SECTION_TEXT)?;
        let mut text = TextIndex::new();
        let mut prev_t = 0u64;
        let mut first_t = true;
        let mut indexed = 0usize;
        while !tx.is_done() {
            let delta = tx.varint()?;
            if !first_t && delta == 0 {
                return Err(tx.corrupt("text ids are not strictly increasing"));
            }
            first_t = false;
            let raw = prev_t
                .checked_add(delta)
                .ok_or_else(|| tx.corrupt("text id overflow"))?;
            prev_t = raw;
            let id = tx.term_id(raw, term_count)?;
            let Some(lit) = interner.resolve(id).as_literal() else {
                return Err(tx.corrupt(format!("text id {} is not a literal", id.0)));
            };
            text.index_literal(id, lit.lexical());
            indexed += 1;
        }
        if indexed != header.text_count {
            return Err(tx.corrupt(format!(
                "text section holds {indexed} literals, header promised {}",
                header.text_count
            )));
        }

        Ok(Graph::from_snapshot_parts(
            Arc::new(interner),
            spo,
            pos,
            osp,
            header.triple_count,
            pred_stats,
            Arc::new(text),
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
