//! TSV I/O in the Bordes-et-al. benchmark formats.
//!
//! The classic benchmark releases ship `train.txt` / `valid.txt` /
//! `test.txt` with one triple per line. Two column orders are in the wild:
//! `head⟂relation⟂tail` (FB15k/WN18 releases) and `head⟂tail⟂relation`.
//! The loader supports both; names are interned on first sight so the same
//! dictionaries span all three splits.
//!
//! A split names only the entities and relations that occur in a triple,
//! and first-sight interning numbers them in file order. So
//! [`save_benchmark_dir`] also writes the vocabulary as `entities.dict`
//! and `relations.dict` in RotatE's data layout (`id<TAB>name`, ids
//! `0..N−1` in order). When both files are present, [`load_benchmark_dir`]
//! takes ids and counts from them, so a round trip keeps every id and
//! every entity that occurs in no triple.

use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::dictionary::Dictionary;
use crate::ids::{EntityId, RelationId};
use crate::triple::Triple;

/// Column order of a triple TSV file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnOrder {
    /// `head \t relation \t tail` — the order used by the original WN18 and
    /// FB15k releases.
    HeadRelTail,
    /// `head \t tail \t relation`.
    HeadTailRel,
}

/// Errors from loading or validating knowledge-graph data.
#[derive(Debug)]
pub enum KgError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line: `(path-ish label, line number, content)`.
    Parse {
        /// Which file or split.
        source_name: String,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Referential-integrity violation detected by [`Dataset::validate`].
    Integrity(String),
}

impl fmt::Display for KgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgError::Io(e) => write!(f, "I/O error: {e}"),
            KgError::Parse { source_name, line, message } => {
                write!(f, "parse error in {source_name}:{line}: {message}")
            }
            KgError::Integrity(m) => write!(f, "integrity error: {m}"),
        }
    }
}

impl std::error::Error for KgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KgError {
    fn from(e: std::io::Error) -> Self {
        KgError::Io(e)
    }
}

/// Parses one split from a reader, interning names into the shared
/// dictionaries.
///
/// Empty lines are skipped. Fields are split on tabs; if a line has no tab,
/// it is split on arbitrary whitespace instead (some distributions use
/// spaces).
pub fn read_split<R: BufRead>(
    reader: R,
    order: ColumnOrder,
    source_name: &str,
    entities: &mut Dictionary,
    relations: &mut Dictionary,
) -> Result<Vec<Triple>, KgError> {
    let mut triples = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = if line.contains('\t') {
            line.split('\t').map(str::trim).collect()
        } else {
            line.split_whitespace().collect()
        };
        if fields.len() != 3 {
            return Err(KgError::Parse {
                source_name: source_name.to_owned(),
                line: lineno + 1,
                message: format!("expected 3 fields, found {}", fields.len()),
            });
        }
        let (h, t, r) = match order {
            ColumnOrder::HeadRelTail => (fields[0], fields[2], fields[1]),
            ColumnOrder::HeadTailRel => (fields[0], fields[1], fields[2]),
        };
        triples.push(Triple {
            head: EntityId(entities.intern(h)),
            tail: EntityId(entities.intern(t)),
            relation: RelationId(relations.intern(r)),
        });
    }
    Ok(triples)
}

/// The vocabulary files [`save_benchmark_dir`] writes next to the splits.
const ENTITY_DICT: &str = "entities.dict";
const RELATION_DICT: &str = "relations.dict";

/// Reads one `id<TAB>name` vocabulary file: ids must run `0, 1, 2, …` in
/// line order and names must be distinct. Empty lines are skipped.
fn read_dict(path: &Path) -> Result<Dictionary, KgError> {
    let source_name = path.display().to_string();
    let mut dict = Dictionary::new();
    for (lineno, line) in BufReader::new(File::open(path)?).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let error = |message: String| KgError::Parse {
            source_name: source_name.clone(),
            line: lineno + 1,
            message,
        };
        let (id, name) =
            line.split_once('\t').ok_or_else(|| error("expected `id<TAB>name`".to_owned()))?;
        let (id, name) = (id.trim(), name.trim());
        if id.parse::<usize>().ok() != Some(dict.len()) {
            return Err(error(format!("expected id {}, found {id:?}", dict.len())));
        }
        if dict.get(name).is_some() {
            return Err(error(format!("duplicate name {name:?}")));
        }
        dict.intern(name);
    }
    Ok(dict)
}

/// Loads a benchmark directory containing `train.txt`, `valid.txt`,
/// `test.txt`, and optionally the `entities.dict` and `relations.dict`
/// vocabulary [`save_benchmark_dir`] writes.
///
/// With both vocabulary files present, ids come from them and a split
/// that names anything they do not list is rejected. Without them, names
/// are interned on first sight.
///
/// # Errors
/// Fails if any file is missing or malformed, if a split names an entity
/// or relation the vocabulary does not list, or if the resulting dataset
/// does not validate.
pub fn load_benchmark_dir<P: AsRef<Path>>(dir: P, order: ColumnOrder) -> Result<Dataset, KgError> {
    let dir = dir.as_ref();
    let (entity_dict, relation_dict) = (dir.join(ENTITY_DICT), dir.join(RELATION_DICT));
    let listed = entity_dict.exists() && relation_dict.exists();
    let (mut entities, mut relations) = if listed {
        (read_dict(&entity_dict)?, read_dict(&relation_dict)?)
    } else {
        (Dictionary::new(), Dictionary::new())
    };
    let (num_listed_entities, num_listed_relations) = (entities.len(), relations.len());
    let mut load = |file: &str| -> Result<Vec<Triple>, KgError> {
        let path = dir.join(file);
        let source = path.display().to_string();
        let f = File::open(&path)?;
        let triples = read_split(BufReader::new(f), order, &source, &mut entities, &mut relations)?;
        // Interning an unlisted name grows its dictionary past the listed
        // count; the first such name is the first one the split used.
        if listed {
            for (dict, num_listed, what, dict_file) in [
                (&entities, num_listed_entities, "entity", ENTITY_DICT),
                (&relations, num_listed_relations, "relation", RELATION_DICT),
            ] {
                if let Some(name) = dict.name(num_listed as u32) {
                    return Err(KgError::Integrity(format!(
                        "{source}: {what} {name:?} is not listed in {dict_file}"
                    )));
                }
            }
        }
        Ok(triples)
    };
    let train = load("train.txt")?;
    let valid = load("valid.txt")?;
    let test = load("test.txt")?;
    let ds = Dataset { entities, relations, train, valid, test };
    ds.validate()?;
    Ok(ds)
}

/// Writes one split as TSV in the given column order.
pub fn write_split<W: Write>(
    mut w: W,
    triples: &[Triple],
    order: ColumnOrder,
    entities: &Dictionary,
    relations: &Dictionary,
) -> Result<(), KgError> {
    for t in triples {
        let h = entities.name(t.head.0).unwrap_or("?");
        let ta = entities.name(t.tail.0).unwrap_or("?");
        let r = relations.name(t.relation.0).unwrap_or("?");
        match order {
            ColumnOrder::HeadRelTail => writeln!(w, "{h}\t{r}\t{ta}")?,
            ColumnOrder::HeadTailRel => writeln!(w, "{h}\t{ta}\t{r}")?,
        }
    }
    Ok(())
}

/// Saves a dataset as `train.txt` / `valid.txt` / `test.txt` under `dir`,
/// with its vocabulary as `entities.dict` / `relations.dict`.
pub fn save_benchmark_dir<P: AsRef<Path>>(
    ds: &Dataset,
    dir: P,
    order: ColumnOrder,
) -> Result<(), KgError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for (name, triples) in
        [("train.txt", &ds.train), ("valid.txt", &ds.valid), ("test.txt", &ds.test)]
    {
        let mut w = BufWriter::new(File::create(dir.join(name))?);
        write_split(&mut w, triples, order, &ds.entities, &ds.relations)?;
        w.flush()?;
    }
    for (name, dict) in [(ENTITY_DICT, &ds.entities), (RELATION_DICT, &ds.relations)] {
        let mut w = BufWriter::new(File::create(dir.join(name))?);
        for (id, entry) in dict.iter() {
            writeln!(w, "{id}\t{entry}")?;
        }
        w.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_head_rel_tail() {
        let data = "cat\tis_a\tanimal\ndog\tis_a\tanimal\n";
        let mut e = Dictionary::new();
        let mut r = Dictionary::new();
        let triples =
            read_split(Cursor::new(data), ColumnOrder::HeadRelTail, "mem", &mut e, &mut r).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(e.len(), 3);
        assert_eq!(r.len(), 1);
        assert_eq!(triples[0], Triple::new(0, 1, 0));
        assert_eq!(e.name(0), Some("cat"));
        assert_eq!(e.name(1), Some("animal"));
    }

    #[test]
    fn reads_head_tail_rel_and_whitespace_fallback() {
        let data = "cat animal is_a\n\n dog animal is_a \n";
        let mut e = Dictionary::new();
        let mut r = Dictionary::new();
        let triples =
            read_split(Cursor::new(data), ColumnOrder::HeadTailRel, "mem", &mut e, &mut r).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].tail, EntityId(e.get("animal").unwrap()));
        assert_eq!(r.name(0), Some("is_a"));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let data = "only\ttwo\n";
        let mut e = Dictionary::new();
        let mut r = Dictionary::new();
        let err = read_split(Cursor::new(data), ColumnOrder::HeadRelTail, "bad.txt", &mut e, &mut r)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.txt:1"), "{msg}");
        assert!(msg.contains("expected 3 fields"), "{msg}");
    }

    #[test]
    fn save_load_round_trip() {
        use crate::dataset::Dataset;
        let ds = Dataset {
            entities: Dictionary::from_names(["a", "b", "c"]),
            relations: Dictionary::from_names(["p", "q"]),
            train: vec![Triple::new(0, 1, 0), Triple::new(1, 2, 1)],
            valid: vec![Triple::new(2, 0, 0)],
            test: vec![Triple::new(0, 2, 1)],
        };
        let dir = std::env::temp_dir().join(format!("mei_kg_io_test_{}", std::process::id()));
        save_benchmark_dir(&ds, &dir, ColumnOrder::HeadRelTail).unwrap();
        let loaded = load_benchmark_dir(&dir, ColumnOrder::HeadRelTail).unwrap();
        assert_eq!(loaded.stats(), ds.stats());
        // Same names map to same structure: re-resolve a triple by name.
        let a = loaded.entities.get("a").unwrap();
        let b = loaded.entities.get("b").unwrap();
        let p = loaded.relations.get("p").unwrap();
        assert!(loaded.train.contains(&Triple::new(a, b, p)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A scratch directory holding `ds` as saved by `save_benchmark_dir`.
    fn saved(ds: &Dataset, tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mei_kg_io_{tag}_{}", std::process::id()));
        save_benchmark_dir(ds, &dir, ColumnOrder::HeadRelTail).unwrap();
        dir
    }

    /// `d` and `lonely` occur in no triple; `b` first occurs in valid.
    fn with_unused_names() -> Dataset {
        Dataset {
            entities: Dictionary::from_names(["d", "a", "c", "lonely", "b"]),
            relations: Dictionary::from_names(["unused", "p", "q"]),
            train: vec![Triple::new(2, 1, 2), Triple::new(1, 2, 1)],
            valid: vec![Triple::new(4, 1, 1)],
            test: vec![Triple::new(1, 4, 2)],
        }
    }

    #[test]
    fn vocabulary_round_trip_keeps_ids_and_unused_names() {
        let ds = with_unused_names();
        let dir = saved(&ds, "vocab");
        let loaded = load_benchmark_dir(&dir, ColumnOrder::HeadRelTail).unwrap();
        assert_eq!(loaded.num_entities(), 5);
        assert_eq!(loaded.num_relations(), 3);
        assert!(loaded.entities.iter().eq(ds.entities.iter()));
        assert!(loaded.relations.iter().eq(ds.relations.iter()));
        assert_eq!((&loaded.train, &loaded.valid, &loaded.test), (&ds.train, &ds.valid, &ds.test));

        // Without the vocabulary the directory loads as a plain benchmark
        // release: first-sight ids, and the unused names are gone.
        std::fs::remove_file(dir.join(ENTITY_DICT)).unwrap();
        let plain = load_benchmark_dir(&dir, ColumnOrder::HeadRelTail).unwrap();
        assert_eq!(plain.num_entities(), 3);
        assert_eq!(plain.num_relations(), 2);
        assert_eq!(plain.entities.name(0), Some("c"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_vocabulary_is_rejected() {
        let ds = with_unused_names();
        for (tag, file, content, expect) in [
            ("gap", ENTITY_DICT, "0\td\n2\ta\n", "expected id 1"),
            ("dup", RELATION_DICT, "0\tp\n1\tq\n2\tp\n", "duplicate name \"p\""),
            ("notab", ENTITY_DICT, "0 d\n", "expected `id<TAB>name`"),
        ] {
            let dir = saved(&ds, tag);
            std::fs::write(dir.join(file), content).unwrap();
            let err = load_benchmark_dir(&dir, ColumnOrder::HeadRelTail).unwrap_err();
            assert!(matches!(err, KgError::Parse { .. }), "{tag}: {err}");
            assert!(err.to_string().contains(expect), "{tag}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }

        // A triple naming an entity the vocabulary does not list.
        let dir = saved(&ds, "unlisted");
        std::fs::write(dir.join(ENTITY_DICT), "0\td\n1\ta\n2\tc\n3\tlonely\n").unwrap();
        let err = load_benchmark_dir(&dir, ColumnOrder::HeadRelTail).unwrap_err();
        assert!(matches!(err, KgError::Integrity(_)), "{err}");
        assert!(err.to_string().contains("valid.txt: entity \"b\" is not listed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_benchmark_dir("/nonexistent/dir/xyz", ColumnOrder::HeadRelTail).unwrap_err();
        assert!(matches!(err, KgError::Io(_)));
        assert!(err.to_string().contains("I/O error"));
    }
}
