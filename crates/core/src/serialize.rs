//! Binary persistence for trained models.
//!
//! §1 motivates reusing learned embeddings as "extracted or pretrained
//! feature vectors in other learning models"; that requires saving and
//! reloading them. The format is a small, versioned little-endian codec
//! built on `bytes`:
//!
//! ```text
//! magic "MEIM" | version u32 | payload checksum u64 (FNV-1a) |
//! payload:
//!   n_ent u32 | n_rel u32 | dim u32 |
//!   num_entities u32 | num_relations u32 | restriction u8 | trainable u8 |
//!   raw ω (n_ent²·n_rel f32) |
//!   zero pad to 64B | entity table |
//!   zero pad to 64B | relation table |
//!   extension (v5, only when present):
//!     flags u8 |
//!     [flags bit0] block-term shape: k u32 | ce u32 | cr u32 |
//!     [flags bit1] interaction norm: momentum f32 | eps f32 |
//!                  γ, β, running_mean, running_var (4·n·dim f32)
//! ```
//!
//! The checksum covers every payload byte (padding included), so a
//! truncated or half-written snapshot (the failure mode that matters once
//! `mei serve` hot-swaps checkpoints published by a concurrent training
//! run) is rejected with a [`SerializeError::Checksum`] instead of being
//! loaded as garbage embeddings.
//!
//! This build reads versions 4 and 5; older files are rejected with a
//! [`SerializeError::Format`] naming that window. One parser serves every
//! loader: it checks magic, version and checksum, validates each span with
//! checked arithmetic before reading it, and leaves building the tables to
//! the caller — a copy for [`model_from_bytes`] and [`load_model`], a
//! borrow of the mapping for [`load_model_mapped`]. A header that lies
//! about its shapes is therefore a typed error in every loader, never a
//! panic or an allocation larger than the file.
//!
//! Both tables are zero-padded to a 64-byte boundary *measured from the
//! start of the file*, which makes them directly memory-mappable:
//! [`load_model_mapped`] maps the file, verifies the checksum
//! (checksum-before-trust — a mapping is never handed out until its
//! payload hashes clean), and builds `f32` tables that borrow the page
//! cache instead of copying gigabytes through the heap. That turns a
//! million-entity serving hot-swap into map + checksum + pointer install.
//!
//! A TSV export of concatenated entity embeddings is also provided for the
//! §3.2 data-analysis workflow (feeding external tools).

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::embedding::EmbeddingTable;
use crate::mmap::{MappedBytes, MMAP_SUPPORTED};
use crate::model::{BlockTermShape, InteractionNorm, ModelConfig, MultiEmbedModel};
use crate::weights::{WeightRestriction, WeightVector};

const MAGIC: &[u8; 4] = b"MEIM";
/// Highest read/write version: version 5 appends an optional extension
/// (block-term shape, interaction-norm state) after the relation table.
/// Models with neither extension keep writing version 4 bytes, so plain
/// snapshots stay byte-for-byte stable across this format bump.
const VERSION: u32 = 5;
/// Version 4 (checksummed, tables 64-byte aligned) is the oldest version
/// this build reads, and still the write version for extension-free
/// models.
const V4_VERSION: u32 = 4;
/// `magic | version | checksum` prefix length; alignment offsets are
/// measured from the start of the file, so the payload begins here.
const HEADER_LEN: usize = 16;
/// Embedding tables start on multiples of this — cache-line sized, and a
/// multiple of every SIMD vector width the kernels use.
const TABLE_ALIGN: usize = 64;
/// v5 extension flag: the payload tail carries a block-term shape.
const EXT_BLOCK_TERM: u8 = 1 << 0;
/// v5 extension flag: the payload tail carries interaction-norm state.
const EXT_INTERACTION_NORM: u8 = 1 << 1;

/// Zero bytes needed to advance `file_off` to the next table boundary.
fn pad_len(file_off: usize) -> usize {
    (TABLE_ALIGN - file_off % TABLE_ALIGN) % TABLE_ALIGN
}

/// FNV-1a over `bytes` — dependency-free, byte-order independent, and
/// plenty to catch truncation/corruption (this guards against accidents,
/// not adversaries).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes do not form a valid model file.
    Format(String),
    /// The header parsed but the payload checksum does not match — the
    /// file is corrupt, truncated, or still being written.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "I/O error: {e}"),
            SerializeError::Format(m) => write!(f, "format error: {m}"),
            SerializeError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch (header says {expected:#018x}, payload hashes to \
                 {actual:#018x}) — the model file is corrupt, truncated, or mid-write; \
                 refusing to load it"
            ),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

fn restriction_tag(r: WeightRestriction) -> u8 {
    match r {
        WeightRestriction::None => 0,
        WeightRestriction::Tanh => 1,
        WeightRestriction::Sigmoid => 2,
        WeightRestriction::Softmax => 3,
    }
}

fn restriction_from_tag(tag: u8) -> Result<WeightRestriction, SerializeError> {
    Ok(match tag {
        0 => WeightRestriction::None,
        1 => WeightRestriction::Tanh,
        2 => WeightRestriction::Sigmoid,
        3 => WeightRestriction::Softmax,
        other => return Err(SerializeError::Format(format!("unknown restriction tag {other}"))),
    })
}

fn put_table(buf: &mut BytesMut, table: &EmbeddingTable) {
    for v in table.as_slice() {
        buf.put_f32_le(*v);
    }
}

/// Serializes the payload (everything the checksum covers), zero-padding
/// each table to a 64-byte offset computed as if the payload starts at
/// byte [`HEADER_LEN`] of the file.
fn payload_to_bytes(model: &MultiEmbedModel) -> BytesMut {
    let cfg = model.config();
    let mut buf = BytesMut::with_capacity(160 + 4 * model.num_params());
    buf.put_u32_le(cfg.n as u32);
    buf.put_u32_le(model.raw_omega().n_rel() as u32);
    buf.put_u32_le(cfg.dim as u32);
    buf.put_u32_le(cfg.num_entities as u32);
    buf.put_u32_le(cfg.num_relations as u32);
    buf.put_u8(restriction_tag(model.restriction()));
    buf.put_u8(u8::from(model.trainable_omega()));
    for w in model.raw_omega().dense() {
        buf.put_f32_le(*w);
    }
    const ZEROS: [u8; TABLE_ALIGN] = [0u8; TABLE_ALIGN];
    buf.put_slice(&ZEROS[..pad_len(HEADER_LEN + buf.len())]);
    put_table(&mut buf, &model.entities);
    buf.put_slice(&ZEROS[..pad_len(HEADER_LEN + buf.len())]);
    put_table(&mut buf, &model.relations);
    let flags = extension_flags(model);
    if flags != 0 {
        buf.put_u8(flags);
        if let Some(bt) = model.block_term_shape() {
            buf.put_u32_le(bt.k as u32);
            buf.put_u32_le(bt.ce as u32);
            buf.put_u32_le(bt.cr as u32);
        }
        if let Some(nrm) = model.interaction_norm() {
            buf.put_f32_le(nrm.momentum);
            buf.put_f32_le(nrm.eps);
            for v in nrm.flat() {
                buf.put_f32_le(v);
            }
        }
    }
    buf
}

/// Extension flag byte for the v5 payload tail — zero when the model needs
/// no extension, in which case the file is written as plain version 4.
fn extension_flags(model: &MultiEmbedModel) -> u8 {
    let mut flags = 0u8;
    if model.block_term_shape().is_some() {
        flags |= EXT_BLOCK_TERM;
    }
    if model.interaction_norm().is_some() {
        flags |= EXT_INTERACTION_NORM;
    }
    flags
}

/// Serializes a model to bytes (checksummed, tables 64-byte aligned for
/// mapped loading). Plain models write version 4; models carrying a
/// block-term shape or interaction-norm state write version 5, which
/// appends those after the relation table without moving the tables.
pub fn model_to_bytes(model: &MultiEmbedModel) -> Bytes {
    let payload = payload_to_bytes(model);
    let version = if extension_flags(model) != 0 { VERSION } else { V4_VERSION };
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(version);
    buf.put_u64_le(fnv1a64(&payload));
    buf.put_slice(&payload);
    buf.freeze()
}

/// Byte length of `dims.product()` little-endian `f32`s, or a
/// "`what` size overflows" error — header values come from the file, so
/// every size is computed with checked arithmetic before it is compared
/// against the bytes present.
fn f32_span(dims: &[usize], what: &str) -> Result<usize, SerializeError> {
    dims.iter()
        .try_fold(4usize, |len, &d| len.checked_mul(d))
        .ok_or_else(|| SerializeError::Format(format!("{what} size overflows")))
}

/// Decodes a span of little-endian `f32`s (any alignment).
fn decode_f32s(span: &[u8]) -> impl Iterator<Item = f32> + '_ {
    span.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

/// A bounds-checked little-endian reader over one model file. `off`
/// counts from the start of the file, which is what table alignment is
/// measured against.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    /// The next `len` bytes, or "truncated `what`" when the file ends first.
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], SerializeError> {
        let end = self
            .off
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| SerializeError::Format(format!("truncated {what}")))?;
        let span = &self.bytes[self.off..end];
        self.off = end;
        Ok(span)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SerializeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SerializeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4-byte span")))
    }

    fn f32(&mut self, what: &str) -> Result<f32, SerializeError> {
        self.u32(what).map(f32::from_bits)
    }

    /// Skips the zero padding that puts the next table on a
    /// [`TABLE_ALIGN`] boundary.
    fn align(&mut self) -> Result<(), SerializeError> {
        self.take(pad_len(self.off), "alignment padding").map(drop)
    }
}

/// The model-file parser behind every loader. It checks magic, version
/// and checksum, then validates every span before reading it.
/// `table(items, components, dim, offset)` builds an embedding table from
/// the `items·components·dim` floats at byte `offset` of `bytes`; the
/// range is in bounds and [`TABLE_ALIGN`]-aligned from the start of
/// `bytes` by the time it is called.
fn parse_model(
    bytes: &[u8],
    table: impl Fn(usize, usize, usize, usize) -> EmbeddingTable,
) -> Result<MultiEmbedModel, SerializeError> {
    let mut cur = Cursor { bytes, off: 0 };
    if cur.take(MAGIC.len(), "magic").ok() != Some(&MAGIC[..]) {
        return Err(SerializeError::Format("bad magic (not a mei model file)".into()));
    }
    let version = cur.u32("header")?;
    if !(V4_VERSION..=VERSION).contains(&version) {
        return Err(SerializeError::Format(format!(
            "unsupported version {version} (this build reads versions {V4_VERSION} \
             through {VERSION})"
        )));
    }
    let checksum = cur.take(8, "header (missing checksum)")?;
    let expected = u64::from_le_bytes(checksum.try_into().expect("8-byte span"));
    let actual = fnv1a64(&bytes[cur.off..]);
    if actual != expected {
        return Err(SerializeError::Checksum { expected, actual });
    }

    let what = "payload header";
    let n = cur.u32(what)? as usize;
    let n_rel = cur.u32(what)? as usize;
    let dim = cur.u32(what)? as usize;
    let num_entities = cur.u32(what)? as usize;
    let num_relations = cur.u32(what)? as usize;
    let restriction = restriction_from_tag(cur.u8(what)?)?;
    let trainable = cur.u8(what)? != 0;
    if n == 0 || n_rel == 0 || dim == 0 {
        return Err(SerializeError::Format("n, n_rel and dim must be positive".into()));
    }
    let raw: Vec<f32> = decode_f32s(cur.take(f32_span(&[n, n, n_rel], "ω")?, "ω")?).collect();

    cur.align()?;
    let entities_at = cur.off;
    cur.take(f32_span(&[num_entities, n, dim], "entity table")?, "embedding table")?;
    cur.align()?;
    let relations_at = cur.off;
    cur.take(f32_span(&[num_relations, n_rel, dim], "relation table")?, "embedding table")?;
    let (shape, norm) =
        if version == VERSION { parse_extension(&mut cur, n, n_rel, dim)? } else { (None, None) };

    let cfg = ModelConfig { num_entities, num_relations, n, dim };
    let mut model = MultiEmbedModel::from_parts(
        cfg,
        table(num_entities, n, dim, entities_at),
        table(num_relations, n_rel, dim, relations_at),
        WeightVector::with_dims(n, n_rel, raw),
        restriction,
        trainable,
    );
    model.set_block_term(shape);
    model.set_interaction_norm(norm);
    model.refresh_omega();
    Ok(model)
}

/// Parses the v5 extension tail (flags byte onward).
fn parse_extension(
    cur: &mut Cursor<'_>,
    n: usize,
    n_rel: usize,
    dim: usize,
) -> Result<(Option<BlockTermShape>, Option<InteractionNorm>), SerializeError> {
    let flags = cur.u8("v5 extension flags")?;
    if flags & !(EXT_BLOCK_TERM | EXT_INTERACTION_NORM) != 0 {
        return Err(SerializeError::Format(format!("unknown extension flags {flags:#04x}")));
    }
    let mut shape = None;
    if flags & EXT_BLOCK_TERM != 0 {
        let what = "block-term extension";
        let (k, ce, cr) =
            (cur.u32(what)? as usize, cur.u32(what)? as usize, cur.u32(what)? as usize);
        let bt = BlockTermShape { k, ce, cr };
        if bt.n() != n || bt.n_rel() != n_rel {
            return Err(SerializeError::Format(format!(
                "block-term shape {k}×{ce}×{cr} does not match n={n}, n_rel={n_rel}"
            )));
        }
        // K = 1 spans the whole grid; the in-memory canonical form is None.
        shape = (k > 1).then_some(bt);
    }
    let mut norm = None;
    if flags & EXT_INTERACTION_NORM != 0 {
        let what = "interaction-norm extension";
        let momentum = cur.f32(what)?;
        let eps = cur.f32(what)?;
        let flat: Vec<f32> = decode_f32s(cur.take(f32_span(&[4, n, dim], what)?, what)?).collect();
        let mut nrm = InteractionNorm::identity(n * dim, momentum, eps);
        nrm.restore_flat(&flat);
        norm = Some(nrm);
    }
    Ok((shape, norm))
}

/// Deserializes a model from bytes, copying both embedding tables out.
pub fn model_from_bytes(buf: Bytes) -> Result<MultiEmbedModel, SerializeError> {
    parse_model(&buf, |items, n, dim, offset| {
        let mut table = EmbeddingTable::zeros(items, n, dim);
        let span = &buf[offset..offset + 4 * table.len()];
        for (v, x) in table.as_mut_slice().iter_mut().zip(decode_f32s(span)) {
            *v = x;
        }
        table
    })
}

/// Writes `bytes` to `path` atomically: the bytes land in a sibling temp
/// file, are flushed to stable storage with `sync_all`, and only then
/// renamed over the destination (with a parent-directory fsync on unix so
/// the rename itself survives power loss). Readers therefore observe
/// either the complete old file or the complete new file — never a
/// half-written mix, which is what makes checkpoints crash-safe: a SIGKILL
/// at any instant leaves the previous good file untouched.
pub fn write_bytes_atomic<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), SerializeError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| SerializeError::Format(format!("{} has no file name", path.display())))?;
    // A per-process suffix keeps concurrent writers (e.g. a trainer and a
    // copy job) from stomping on each other's temp files.
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let result = (|| -> Result<(), SerializeError> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself: fsync the parent directory so the new
        // directory entry is durable, not just the file contents.
        #[cfg(unix)]
        if let Some(d) = dir {
            std::fs::File::open(d)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Saves a model to a file via [`write_bytes_atomic`], so a crash mid-save
/// can never corrupt an existing good model at the same path.
pub fn save_model<P: AsRef<Path>>(model: &MultiEmbedModel, path: P) -> Result<(), SerializeError> {
    write_bytes_atomic(path, &model_to_bytes(model))
}

/// Loads a model from a file into owned tables.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<MultiEmbedModel, SerializeError> {
    model_from_bytes(Bytes::from(std::fs::read(path)?))
}

/// Loads a model by memory-mapping the file instead of copying it.
///
/// Checksum-before-trust: the whole payload is hashed against the header
/// checksum *before* any field is interpreted, exactly like the owned
/// loader — a half-written or corrupt file is rejected, never mapped into
/// a live snapshot. On success the entity and relation tables borrow the
/// mapping directly ([`EmbeddingTable::is_mapped`] returns `true`), so a
/// gigabyte-scale model "loads" in the time it takes to hash it; the ω
/// weights (a handful of floats) are copied out. Scores are bit-identical
/// to a [`load_model`] of the same file.
///
/// Platforms where the mapping FFI is not supported, or whose byte order
/// does not match the little-endian file layout, load owned tables
/// through [`load_model`] instead.
pub fn load_model_mapped<P: AsRef<Path>>(path: P) -> Result<MultiEmbedModel, SerializeError> {
    let path = path.as_ref();
    if !MMAP_SUPPORTED || !cfg!(target_endian = "little") {
        return load_model(path);
    }
    let map = Arc::new(MappedBytes::map_file(path)?);
    let bytes: &[u8] = &map;
    parse_model(bytes, |items, n, dim, offset| {
        EmbeddingTable::from_mapped(items, n, dim, Arc::clone(&map), offset)
    })
}

/// Writes concatenated entity embeddings as TSV (`name \t v0 \t v1 …`) for
/// external analysis tools (§3.2).
pub fn export_entity_embeddings_tsv<W: Write>(
    model: &MultiEmbedModel,
    names: impl Fn(u32) -> String,
    mut w: W,
) -> Result<(), SerializeError> {
    for e in 0..model.config().num_entities {
        write!(w, "{}", names(e as u32))?;
        for v in model.entities.row(e) {
            write!(w, "\t{v}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::weights::WeightPreset;
    use mei_kg::Triple;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(3);
        MultiEmbedModel::from_preset(WeightPreset::ComplEx, 7, 3, 5, &mut rng)
    }

    fn header_version(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes[4..8].try_into().unwrap())
    }

    /// A 106-byte file whose checksum is valid but whose header declares
    /// n = n_rel = 1, dim = |E| = 2³¹, |R| = 1: the entity span
    /// |E|·n·dim·4 = 2⁶⁴ wraps to 0 in unchecked arithmetic. Payload: one
    /// ω float and 64 zero bytes.
    pub(crate) fn wrapping_span_file(version: u32) -> Vec<u8> {
        let mut payload = BytesMut::new();
        for field in [1u32, 1, 1 << 31, 1 << 31, 1] {
            payload.put_u32_le(field);
        }
        payload.put_u8(0);
        payload.put_u8(0);
        payload.put_f32_le(1.0);
        payload.put_slice(&[0u8; 64]);
        let mut file = BytesMut::new();
        file.put_slice(MAGIC);
        file.put_u32_le(version);
        file.put_u64_le(fnv1a64(&payload));
        file.put_slice(&payload);
        assert_eq!(file.len(), 106);
        file.to_vec()
    }

    #[test]
    fn round_trip_preserves_scores() {
        let m = model();
        let bytes = model_to_bytes(&m);
        let m2 = model_from_bytes(bytes).unwrap();
        for (h, t, r) in [(0u32, 1u32, 0u32), (5, 6, 2), (3, 3, 1)] {
            assert_eq!(m.score_triple(Triple::new(h, t, r)), m2.score_triple(Triple::new(h, t, r)));
        }
        assert_eq!(m.config(), m2.config());
        assert_eq!(m.omega().dense(), m2.omega().dense());
    }

    #[test]
    fn round_trip_learned_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ModelConfig { num_entities: 4, num_relations: 2, n: 2, dim: 3 };
        let m = MultiEmbedModel::with_learned_weights(
            cfg,
            WeightRestriction::Softmax,
            0.2,
            &mut rng,
        );
        let m2 = model_from_bytes(model_to_bytes(&m)).unwrap();
        assert!(m2.trainable_omega());
        assert_eq!(m2.restriction(), WeightRestriction::Softmax);
        assert_eq!(m.omega().dense(), m2.omega().dense());
    }

    #[test]
    fn file_round_trip() {
        let m = model();
        let path = std::env::temp_dir().join(format!("mei_model_{}.bin", std::process::id()));
        save_model(&m, &path).unwrap();
        let m2 = load_model(&path).unwrap();
        assert_eq!(m.entities.as_slice(), m2.entities.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(model_from_bytes(Bytes::from_static(b"not a model")).is_err());
        assert!(model_from_bytes(Bytes::from_static(b"MEIM")).is_err());
        // Valid magic + bogus version.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(999);
        buf.put_slice(&[0u8; 30]);
        let err = model_from_bytes(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn rejects_truncated_tables() {
        let m = model();
        let bytes = model_to_bytes(&m);
        let truncated = bytes.slice(0..bytes.len() - 8);
        // A truncated file dies at the checksum, before any parsing.
        assert!(matches!(
            model_from_bytes(truncated).unwrap_err(),
            SerializeError::Checksum { .. }
        ));
    }

    #[test]
    fn wrapping_table_span_is_a_format_error_in_every_loader() {
        let bytes = wrapping_span_file(V4_VERSION);
        let err = model_from_bytes(Bytes::from(bytes.clone())).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)), "{err}");
        assert!(err.to_string().contains("entity table size overflows"), "{err}");
        let path = std::env::temp_dir().join(format!("mei_wrap_{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        for err in [load_model(&path).unwrap_err(), load_model_mapped(&path).unwrap_err()] {
            assert!(matches!(err, SerializeError::Format(_)), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v4_versions_are_unsupported_in_every_loader() {
        let path = std::env::temp_dir().join(format!("mei_old_{}.bin", std::process::id()));
        for version in [2, 3] {
            let bytes = wrapping_span_file(version);
            std::fs::write(&path, &bytes).unwrap();
            for err in [
                model_from_bytes(Bytes::from(bytes)).unwrap_err(),
                load_model(&path).unwrap_err(),
                load_model_mapped(&path).unwrap_err(),
            ] {
                assert!(matches!(err, SerializeError::Format(_)), "{err}");
                assert!(err.to_string().contains("unsupported version"), "{err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_is_rejected_with_checksum_error() {
        let m = model();
        let mut bytes = model_to_bytes(&m).to_vec();
        // Flip one bit deep inside the embedding tables.
        let idx = bytes.len() - 13;
        bytes[idx] ^= 0x40;
        let err = model_from_bytes(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, SerializeError::Checksum { .. }));
        assert!(err.to_string().contains("refusing to load"));
    }

    #[test]
    fn file_meta_round_trip_and_fnv_vector() {
        // FNV-1a 64 known-answer: "" and "a".
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let m = model();
        let path = std::env::temp_dir().join(format!("mei_meta_{}.bin", std::process::id()));
        save_model(&m, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            fnv1a64(&bytes[HEADER_LEN..])
        );
        assert_eq!(load_model(&path).unwrap().config(), m.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("mei_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        write_bytes_atomic(&path, b"old contents").unwrap();
        write_bytes_atomic(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        // No stray temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "model.bin")
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_failure_preserves_old_file() {
        let dir = std::env::temp_dir().join(format!("mei_atomic_fail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        write_bytes_atomic(&path, b"good").unwrap();
        // Writing to a path whose parent is missing fails before any
        // rename can touch the good file.
        let bad = dir.join("no_such_subdir").join("model.bin");
        assert!(write_bytes_atomic(&bad, b"bad").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v4_tables_are_64_byte_aligned_from_file_start() {
        let m = model();
        let bytes = model_to_bytes(&m);
        // Extension-free models keep writing version 4 — byte stability.
        assert_eq!(header_version(&bytes), V4_VERSION);
        // Walk the layout: header 16 | meta 22 | ω | pad | entities | pad.
        let omega_bytes = 4 * m.raw_omega().dense().len();
        let mut off = HEADER_LEN + 22 + omega_bytes;
        off += pad_len(off);
        assert_eq!(off % TABLE_ALIGN, 0);
        // The entity table bytes at `off` decode to the model's values.
        let first = f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        assert_eq!(first, m.entities.as_slice()[0]);
        off += 4 * m.entities.len();
        off += pad_len(off);
        assert_eq!(off % TABLE_ALIGN, 0);
        let first_rel = f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        assert_eq!(first_rel, m.relations.as_slice()[0]);
        assert_eq!(off + 4 * m.relations.len(), bytes.len());
    }

    #[test]
    fn mapped_load_matches_owned_load_bit_for_bit() {
        let m = model();
        let path = std::env::temp_dir().join(format!("mei_mapped_{}.bin", std::process::id()));
        save_model(&m, &path).unwrap();
        let owned = load_model(&path).unwrap();
        let mapped = load_model_mapped(&path).unwrap();
        assert_eq!(owned.entities.as_slice(), mapped.entities.as_slice());
        assert_eq!(owned.relations.as_slice(), mapped.relations.as_slice());
        assert_eq!(owned.omega().dense(), mapped.omega().dense());
        assert_eq!(mapped.entities.is_mapped(), crate::mmap::MMAP_SUPPORTED);
        for (h, t, r) in [(0u32, 1u32, 0u32), (5, 6, 2), (3, 3, 1)] {
            assert_eq!(
                owned.score_triple(Triple::new(h, t, r)),
                mapped.score_triple(Triple::new(h, t, r))
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_rejects_corruption_before_trusting_the_mapping() {
        let m = model();
        let path =
            std::env::temp_dir().join(format!("mei_mapped_bad_{}.bin", std::process::id()));
        save_model(&m, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 5;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_model_mapped(&path).unwrap_err(),
            SerializeError::Checksum { .. }
        ));
        // Truncation is also caught by the hash.
        std::fs::write(&path, &bytes[..bytes.len() - 32]).unwrap();
        assert!(load_model_mapped(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn block_term_model() -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(11);
        MultiEmbedModel::block_term(
            9,
            4,
            crate::model::BlockTermShape { k: 3, ce: 2, cr: 1 },
            5,
            0.5,
            &mut rng,
        )
    }

    #[test]
    fn block_term_models_round_trip_as_v5() {
        let mut m = block_term_model();
        m.enable_interaction_norm(0.1, 1e-5);
        // Perturb the norm state so the round trip proves real content.
        {
            let nrm = m.interaction_norm_mut().unwrap();
            nrm.gamma[0] = 1.5;
            nrm.running_mean[1] = -0.25;
            nrm.running_var[2] = 2.0;
        }
        let bytes = model_to_bytes(&m);
        assert_eq!(header_version(&bytes), VERSION);

        let m2 = model_from_bytes(bytes).unwrap();
        assert_eq!(m2.block_term_shape(), m.block_term_shape());
        let (a, b) = (m.interaction_norm().unwrap(), m2.interaction_norm().unwrap());
        assert_eq!(a.flat(), b.flat());
        assert_eq!(a.momentum, b.momentum);
        assert_eq!(a.eps, b.eps);
        assert_eq!(m.entities.as_slice(), m2.entities.as_slice());
        assert_eq!(m.omega().dense(), m2.omega().dense());
    }

    #[test]
    fn v5_mapped_load_matches_owned_and_keeps_tables_mapped() {
        let m = block_term_model();
        let path = std::env::temp_dir().join(format!("mei_mapped_v5_{}.bin", std::process::id()));
        save_model(&m, &path).unwrap();
        let owned = load_model(&path).unwrap();
        let mapped = load_model_mapped(&path).unwrap();
        assert_eq!(owned.block_term_shape(), m.block_term_shape());
        assert_eq!(mapped.block_term_shape(), m.block_term_shape());
        assert_eq!(owned.entities.as_slice(), mapped.entities.as_slice());
        assert_eq!(owned.omega().dense(), mapped.omega().dense());
        assert_eq!(mapped.entities.is_mapped(), crate::mmap::MMAP_SUPPORTED);
        for (h, t, r) in [(0u32, 1u32, 0u32), (8, 3, 3), (4, 4, 1)] {
            assert_eq!(
                owned.score_triple(Triple::new(h, t, r)),
                mapped.score_triple(Triple::new(h, t, r))
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_v5_extension_is_rejected() {
        let m = block_term_model();
        let payload = payload_to_bytes(&m);
        // Drop the last 4 bytes of the extension and re-checksum, so the
        // failure exercises the structural extension check (not the hash).
        let cut = &payload[..payload.len() - 4];
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(fnv1a64(cut));
        buf.put_slice(cut);
        let err = model_from_bytes(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("block-term"), "{err}");
    }

    #[test]
    fn tsv_export_shape() {
        let m = model();
        let mut out = Vec::new();
        export_entity_embeddings_tsv(&m, |e| format!("entity_{e}"), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        // name + n·dim values per line.
        assert_eq!(lines[0].split('\t').count(), 1 + 2 * 5);
        assert!(lines[0].starts_with("entity_0\t"));
    }
}
