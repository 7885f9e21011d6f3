//! Reading and writing the plain-text basket format.
//!
//! The `.baskets` format is one basket per line, whitespace-separated item
//! tokens. Lines starting with `#` are comments; blank lines are *empty
//! baskets* (a basket with no items is meaningful — it contributes to the
//! all-absent contingency cell), so comments must be used for annotations.
//!
//! ```text
//! # groceries
//! tea coffee
//! coffee
//!
//! coffee doughnut
//! ```

use std::fmt;
use std::io::{BufRead, Write};

use crate::database::BasketDatabase;

/// Errors from parsing or serializing basket files.
#[derive(Debug)]
pub enum IoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A numeric basket file contained a non-numeric or out-of-range token.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A catalog name cannot be written as one token: it is empty or
    /// contains whitespace, so reading the file back would split it
    /// differently.
    BadName {
        /// The named item's id.
        item: u32,
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::BadToken { line, token } => {
                write!(f, "line {line}: bad item token {token:?}")
            }
            IoError::BadName { item, name } => {
                write!(
                    f,
                    "item {item}: name {name:?} is empty or contains whitespace"
                )
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::BadToken { .. } | IoError::BadName { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a named-item basket file, interning item names into a catalog.
pub fn read_named<R: BufRead>(reader: R) -> Result<BasketDatabase, IoError> {
    let mut baskets: Vec<Vec<String>> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        baskets.push(trimmed.split_whitespace().map(str::to_string).collect());
    }
    Ok(BasketDatabase::from_named_baskets(baskets))
}

/// Reads a numeric basket file where tokens are item ids in `0..n_items`.
///
/// The item space is sized to the largest id seen (or 0 for an empty file).
pub fn read_numeric<R: BufRead>(reader: R) -> Result<BasketDatabase, IoError> {
    let mut baskets: Vec<Vec<u32>> = Vec::new();
    let mut max_id: Option<u32> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        let mut basket = Vec::new();
        for token in trimmed.split_whitespace() {
            let id: u32 = token.parse().map_err(|_| IoError::BadToken {
                line: lineno + 1,
                token: token.to_string(),
            })?;
            max_id = Some(max_id.map_or(id, |m| m.max(id)));
            basket.push(id);
        }
        baskets.push(basket);
    }
    let n_items = max_id.map_or(0, |m| m as usize + 1);
    Ok(BasketDatabase::from_id_baskets(n_items, baskets))
}

/// Writes a database in the plain-text format. Named output is used when a
/// catalog is attached, numeric ids otherwise.
///
/// # Errors
///
/// [`IoError::BadName`] (before anything is written) when a catalog name
/// is empty or contains whitespace, since [`read_named`] could not read
/// it back as one item; [`IoError::Io`] when the writer fails.
pub fn write<W: Write>(db: &BasketDatabase, mut writer: W) -> Result<(), IoError> {
    if let Some((item, name)) = db.catalog().and_then(|c| {
        c.iter()
            .find(|(_, name)| name.is_empty() || name.contains(char::is_whitespace))
    }) {
        return Err(IoError::BadName {
            item: item.0,
            name: name.to_string(),
        });
    }
    for basket in db.baskets() {
        let mut first = true;
        for &item in basket {
            if !first {
                write!(writer, " ")?;
            }
            match db.catalog().and_then(|c| c.name(item)) {
                Some(name) => write!(writer, "{name}")?,
                None => write!(writer, "{}", item.0)?,
            }
            first = false;
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;

    #[test]
    fn read_named_interns_and_counts() {
        let text = "# a comment\ntea coffee\ncoffee\n\ncoffee doughnut\n";
        let db = read_named(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 4); // the blank line is an empty basket
        let coffee = db.catalog().unwrap().get("coffee").unwrap();
        assert_eq!(db.item_count(coffee), 3);
    }

    #[test]
    fn read_numeric_sizes_item_space() {
        let db = read_numeric("0 2\n1\n".as_bytes()).unwrap();
        assert_eq!(db.n_items(), 3);
        assert_eq!(db.len(), 2);
        assert_eq!(db.item_count(ItemId(2)), 1);
    }

    #[test]
    fn read_numeric_rejects_garbage() {
        let err = read_numeric("0 banana\n".as_bytes()).unwrap_err();
        match err {
            IoError::BadToken { line, token } => {
                assert_eq!(line, 1);
                assert_eq!(token, "banana");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn write_read_round_trip_named() {
        let db = BasketDatabase::from_named_baskets(vec![vec!["a", "b"], vec![], vec!["b"]]);
        let mut buf = Vec::new();
        write(&db, &mut buf).unwrap();
        let back = read_named(buf.as_slice()).unwrap();
        assert_eq!(back.len(), db.len());
        let b = back.catalog().unwrap().get("b").unwrap();
        assert_eq!(back.item_count(b), 2);
    }

    #[test]
    fn write_rejects_names_that_would_not_read_back() {
        for bad in ["never served", "", "tab\there"] {
            let db = BasketDatabase::from_named_baskets(vec![vec!["ok", bad]]);
            let mut buf = Vec::new();
            match write(&db, &mut buf).unwrap_err() {
                IoError::BadName { item, name } => {
                    assert_eq!(item, 1);
                    assert_eq!(name, bad);
                }
                other => panic!("unexpected error {other}"),
            }
            assert!(buf.is_empty(), "nothing is written for {bad:?}");
        }
    }

    #[test]
    fn write_read_round_trip_numeric() {
        let db = BasketDatabase::from_id_baskets(4, vec![vec![0, 3], vec![1], vec![]]);
        let mut buf = Vec::new();
        write(&db, &mut buf).unwrap();
        let back = read_numeric(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.item_count(ItemId(3)), 1);
    }

    #[test]
    fn empty_input_is_empty_database() {
        let db = read_numeric("".as_bytes()).unwrap();
        assert_eq!(db.len(), 0);
        assert_eq!(db.n_items(), 0);
    }
}
