//! Full-state snapshots (checkpoints).
//!
//! A snapshot captures schema, index definitions, every object and the
//! OID allocator. After writing one, the WAL can be truncated; recovery
//! is snapshot + WAL-tail replay.

use std::path::Path;

use crate::codec::{put_varint, put_vstr, DecodeError, Reader};
use crate::error::{DbError, Result};
use crate::object::Object;
use crate::oid::Oid;
use crate::schema::{ClassId, Schema};
use crate::store::ObjectStore;
use crate::util::{atomic_write, read_verified};
use crate::value::Value;

const MAGIC: &[u8; 4] = b"ODBS";
const VERSION: u8 = 1;

/// Index definition carried through a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Indexed class.
    pub class: ClassId,
    /// Indexed attribute.
    pub attr: String,
    /// 0 = B+tree, 1 = hash.
    pub kind: u8,
}

/// Everything a snapshot holds.
#[derive(Debug)]
pub struct Snapshot {
    /// The class schema.
    pub schema: Schema,
    /// Index definitions (entries are rebuilt from objects at load).
    pub indexes: Vec<IndexDef>,
    /// The object store.
    pub store: ObjectStore,
}

/// Write a snapshot of `schema` + `store` + `indexes` to `path`.
pub fn write(
    path: &Path,
    schema: &Schema,
    indexes: &[IndexDef],
    store: &ObjectStore,
) -> Result<()> {
    // Crash-safe: temp file + fsync + atomic rename, CRC-32 trailer.
    atomic_write(path, &encode(schema, indexes, store))
}

/// The snapshot payload (the file without its CRC trailer).
fn encode(schema: &Schema, indexes: &[IndexDef], store: &ObjectStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    // Schema in class-id order; parents reference earlier ids.
    put_varint(&mut out, schema.len() as u64);
    for (_, def) in schema.iter() {
        put_vstr(&mut out, &def.name);
        match def.parent {
            Some(p) => {
                out.push(1);
                put_varint(&mut out, u64::from(p.0));
            }
            None => out.push(0),
        }
    }

    // Index definitions.
    put_varint(&mut out, indexes.len() as u64);
    for ix in indexes {
        put_varint(&mut out, u64::from(ix.class.0));
        put_vstr(&mut out, &ix.attr);
        out.push(ix.kind);
    }

    // OID allocator.
    put_varint(&mut out, store.next_oid());

    // Objects in OID order.
    put_varint(&mut out, store.len() as u64);
    for obj in store.iter_ordered() {
        put_varint(&mut out, obj.oid.0);
        put_varint(&mut out, u64::from(obj.class.0));
        put_varint(&mut out, obj.attrs.len() as u64);
        for (name, value) in &obj.attrs {
            put_vstr(&mut out, name);
            value.encode(&mut out);
        }
    }
    out
}

/// Load a snapshot previously written by [`write()`].
pub fn read(path: &Path) -> Result<Snapshot> {
    let buf = read_verified(path)?;
    decode(&buf).map_err(|e| match e {
        DbError::Corrupt(why) => DbError::Corrupt(format!("snapshot: {why}")),
        other => other,
    })
}

/// Decode a snapshot payload (the file without its CRC trailer).
fn decode(buf: &[u8]) -> Result<Snapshot> {
    let mut r = Reader::new(buf);
    if r.take(4, "magic")? != MAGIC {
        return Err(DbError::Corrupt("bad magic".into()));
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(DbError::Corrupt(format!("version {version}")));
    }

    // Minimum encoded sizes bound each count by the bytes left: a class
    // is a name length and a parent flag, an index a class id, an attr
    // length and a kind, an object an oid, a class id and an attr count,
    // an attribute a name length and a value tag.
    let class_count = r.count_varint(2, "class count")?;
    let mut schema = Schema::new();
    for _ in 0..class_count {
        let name = r.vstring("class name")?;
        let parent = match r.u8("parent flag")? {
            0 => None,
            1 => Some(class_ref(&mut r, &schema, "parent id")?),
            flag => return Err(DecodeError::unknown("parent flag", flag).into()),
        };
        schema.define(&name, parent)?;
    }

    let index_count = r.count_varint(3, "index count")?;
    let mut indexes = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        indexes.push(IndexDef {
            class: class_ref(&mut r, &schema, "index class")?,
            attr: r.vstring("index attr")?,
            kind: r.u8("index kind")?,
        });
    }

    let next_oid = r.varint("next oid")?;
    let mut store = ObjectStore::new();
    store.bump_oid_floor(next_oid);

    let obj_count = r.count_varint(3, "object count")?;
    for _ in 0..obj_count {
        let oid = Oid(r.varint("oid")?);
        let class = class_ref(&mut r, &schema, "class id")?;
        let attr_count = r.count_varint(2, "attr count")?;
        let mut obj = Object::new(oid, class);
        for _ in 0..attr_count {
            let name = r.vstring("attr name")?;
            let value = Value::decode(&mut r)?;
            obj.attrs.insert(name, value);
        }
        store.put(obj);
    }

    r.finish()?;
    Ok(Snapshot {
        schema,
        indexes,
        store,
    })
}

/// A class id that names one of the classes decoded so far: objects
/// and indexes of unknown classes would make later schema lookups panic.
fn class_ref(r: &mut Reader<'_>, schema: &Schema, what: &str) -> Result<ClassId> {
    match r.varint(what)? {
        id if id < schema.len() as u64 => Ok(ClassId(id as u32)),
        id => Err(DecodeError::unknown(what, id).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oodb-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> (Schema, Vec<IndexDef>, ObjectStore) {
        let mut schema = Schema::new();
        let root = schema.define("IRSObject", None).unwrap();
        let para = schema.define("PARA", Some(root)).unwrap();
        let mut store = ObjectStore::new();
        let o1 = store.allocate_oid();
        let mut obj = Object::new(o1, para);
        obj.set_attr("content", Value::from("Telnet is a protocol"));
        obj.set_attr("year", Value::Int(1994));
        obj.set_attr(
            "children",
            Value::List(vec![Value::Oid(Oid(99)), Value::Null]),
        );
        store.put(obj);
        let indexes = vec![IndexDef {
            class: para,
            attr: "year".into(),
            kind: 0,
        }];
        (schema, indexes, store)
    }

    #[test]
    fn round_trip() {
        let (schema, indexes, store) = sample();
        let path = tmp("round_trip.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let snap = read(&path).unwrap();
        assert_eq!(snap.schema.len(), 2);
        assert_eq!(snap.schema.class_id("PARA").unwrap(), ClassId(1));
        assert_eq!(snap.indexes, indexes);
        assert_eq!(snap.store.len(), 1);
        let obj = snap.store.get(Oid(1)).unwrap();
        assert_eq!(obj.attr("year"), Value::Int(1994));
        assert_eq!(obj.attr("content"), Value::from("Telnet is a protocol"));
        // Allocator continues past recovered objects.
        assert!(snap.store.next_oid() > 1);
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("badmagic.snap");
        std::fs::write(&path, b"XXXX\x01").unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let (schema, indexes, store) = sample();
        let path = tmp("trunc.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read(&path).is_err());
    }

    #[test]
    fn bit_flip_in_place_rejected() {
        let (schema, indexes, store) = sample();
        let path = tmp("bitflip.snap");
        write(&path, &schema, &indexes, &store).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn huge_index_count_is_corrupt() {
        // CRC-valid payload: no classes, then 2^60 index definitions.
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        out.extend_from_slice(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]);
        let path = tmp("huge_index_count.snap");
        atomic_write(&path, &out).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn foreign_class_ids_are_corrupt() {
        // An object and an index of class 7 in a schema of two classes.
        let (schema, _, _) = sample();
        let mut store = ObjectStore::new();
        let oid = store.allocate_oid();
        store.put(Object::new(oid, ClassId(7)));
        let index = IndexDef {
            class: ClassId(7),
            attr: "year".into(),
            kind: 0,
        };
        let path = tmp("foreign_class.snap");
        write(&path, &schema, &[], &store).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
        write(&path, &schema, &[index], &ObjectStore::new()).unwrap();
        assert!(matches!(read(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn empty_database_snapshot() {
        let path = tmp("empty.snap");
        write(&path, &Schema::new(), &[], &ObjectStore::new()).unwrap();
        let snap = read(&path).unwrap();
        assert!(snap.schema.is_empty());
        assert!(snap.store.is_empty());
        assert!(snap.indexes.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A CRC-valid snapshot payload with overwritten bytes or a cut
        /// tail never panics the decoder.
        #[test]
        fn mutated_payloads_never_panic(
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            trim in 0usize..4,
        ) {
            let mut bytes = {
                let (schema, indexes, store) = sample();
                encode(&schema, &indexes, &store)
            };
            for (i, b) in edits {
                let n = bytes.len();
                bytes[i % n] = b;
            }
            bytes.truncate(bytes.len().saturating_sub(trim));
            let _ = decode(&bytes);
        }
    }
}
