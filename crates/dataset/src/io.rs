//! On-disk formats for transaction databases.
//!
//! Two formats are provided:
//! * a compact little-endian binary format (magic `ARMD`), suitable for the
//!   multi-megabyte Table 2 datasets;
//! * a human-readable text format (one transaction per line, items
//!   space-separated) for small fixtures and interchange.

use crate::database::Database;
use crate::Item;
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"ARMD";
const VERSION: u32 = 1;

/// Serializes `db` into the binary format.
pub fn write_binary<W: Write>(db: &Database, mut w: W) -> io::Result<()> {
    let mut header = Vec::with_capacity(4 + 4 + 4 + 8);
    header.put_slice(MAGIC);
    header.put_u32_le(VERSION);
    header.put_u32_le(db.n_items());
    header.put_u64_le(db.len() as u64);
    w.write_all(&header)?;

    let mut buf = Vec::with_capacity(4 * db.offsets().len().max(db.items().len()));
    for &o in db.offsets() {
        buf.put_u32_le(o);
    }
    w.write_all(&buf)?;
    buf.clear();
    for &i in db.items() {
        buf.put_u32_le(i);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Deserializes a database from the binary format, validating structure.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Database> {
    let mut all = Vec::new();
    r.read_to_end(&mut all)?;
    let mut buf = &all[..];

    let fail = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if buf.remaining() < 20 {
        return Err(fail("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(fail("unsupported version"));
    }
    let n_items = buf.get_u32_le();
    let n_txns = usize::try_from(buf.get_u64_le()).map_err(|_| fail("truncated offsets"))?;

    // The header count is untrusted: bound the `n_txns + 1` offset words by
    // the bytes actually present before sizing any allocation from it.
    match n_txns.checked_add(1).and_then(|n| n.checked_mul(4)) {
        Some(bytes) if bytes <= buf.remaining() => {}
        _ => return Err(fail("truncated offsets")),
    }
    let mut offsets = Vec::with_capacity(n_txns + 1);
    for _ in 0..=n_txns {
        offsets.push(buf.get_u32_le());
    }
    let total = *offsets.last().unwrap() as usize;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(fail("offsets not monotone"));
    }
    if buf.remaining() != total * 4 {
        return Err(fail("item payload size mismatch"));
    }
    let mut items = Vec::with_capacity(total);
    for _ in 0..total {
        let it = buf.get_u32_le();
        if it >= n_items {
            return Err(fail("item out of range"));
        }
        items.push(it);
    }
    // Re-validate sortedness per transaction.
    for w in offsets.windows(2) {
        let t = &items[w[0] as usize..w[1] as usize];
        if t.windows(2).any(|p| p[0] >= p[1]) {
            return Err(fail("transaction not strictly sorted"));
        }
    }
    Ok(Database::from_raw_unchecked(n_items, offsets, items))
}

/// Writes `db` to `path` in binary format.
pub fn save(db: &Database, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_binary(db, io::BufWriter::new(f))
}

/// Reads a binary database from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<Database> {
    let f = std::fs::File::open(path)?;
    read_binary(io::BufReader::new(f))
}

/// Writes the text format: one transaction per line, space-separated items.
pub fn write_text<W: Write>(db: &Database, mut w: W) -> io::Result<()> {
    for t in db {
        let mut first = true;
        for &i in t {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{i}")?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Parses the text format. `n_items` must be supplied (or pass 0 to infer
/// `max item + 1`). Lines may be empty (empty transactions) and unsorted.
pub fn read_text<R: Read>(r: R, n_items: u32) -> io::Result<Database> {
    let mut content = String::new();
    let mut r = r;
    r.read_to_string(&mut content)?;
    let mut txns: Vec<Vec<Item>> = Vec::new();
    let mut max_item: u32 = 0;
    for line in content.lines() {
        let mut t = Vec::new();
        for tok in line.split_whitespace() {
            let v: u32 = tok
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {tok}")))?;
            max_item = max_item.max(v);
            t.push(v);
        }
        txns.push(t);
    }
    let n = if n_items == 0 {
        if txns.iter().all(|t| t.is_empty()) {
            1
        } else {
            max_item + 1
        }
    } else {
        n_items
    };
    Database::from_transactions(n, txns)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        Database::from_transactions(50, [vec![1u32, 4, 5], vec![], vec![0, 2, 49], vec![7]])
            .unwrap()
    }

    #[test]
    fn binary_roundtrip() {
        let db = sample();
        let mut buf = Vec::new();
        write_binary(&db, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        for cut in [3, 19, buf.len() - 1] {
            assert!(read_binary(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn binary_rejects_crafted_transaction_counts() {
        // 1 << 62 wraps the unchecked `(n + 1) * 4` to 4, which the 4-byte
        // payload satisfies; u64::MAX wraps `n + 1` itself.
        for n_txns in [1u64 << 62, u64::MAX] {
            let mut buf = Vec::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u32_le(8);
            buf.put_u64_le(n_txns);
            buf.put_u32_le(0);
            let err = read_binary(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "n_txns={n_txns}");
        }
    }

    #[test]
    fn binary_rejects_out_of_range_item() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        // Corrupt last item to n_items (= 50).
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&50u32.to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn text_roundtrip() {
        let db = sample();
        let mut buf = Vec::new();
        write_text(&db, &mut buf).unwrap();
        let back = read_text(&buf[..], 50).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn text_infers_n_items() {
        let back = read_text("3 1 2\n9".as_bytes(), 0).unwrap();
        assert_eq!(back.n_items(), 10);
        assert_eq!(back.transaction(0), &[1, 2, 3]);
    }

    #[test]
    fn file_roundtrip() {
        let db = sample();
        let dir = std::env::temp_dir().join("arm_dataset_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.armd");
        save(&db, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
    }
}
