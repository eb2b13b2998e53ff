//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's test matrices come from the SuiteSparse collection, which is
//! distributed in this format. A downstream user with network access can drop
//! the real `audikw_1.mtx` etc. next to the binaries and run the experiment
//! harnesses on them; offline, the generators in [`crate::matgen`] are used.

use crate::coo::Coo;
use crate::csr::Csr;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(m) => write!(f, "Matrix Market parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Entries reserved up front on the size line's word (24 MB of triplets);
/// a larger matrix grows its vectors as its entries arrive.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Read a Matrix Market file from any reader. Supports
/// `matrix coordinate real|integer|pattern general|symmetric`.
/// Symmetric inputs are expanded to full storage. Pattern entries get 1.0.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, MmError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))??
        .to_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err("only coordinate format supported"));
    }
    let value_type = fields[3];
    if !matches!(value_type, "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported value type {value_type}")));
    }
    let symmetry = fields[4];
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(parse_err(format!("unsupported symmetry {symmetry}")));
    }

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size field {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must have 3 fields"));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    let symmetric = symmetry == "symmetric";
    if symmetric && nrows != ncols {
        return Err(parse_err(format!(
            "size line: a symmetric matrix must be square, got {nrows} x {ncols}"
        )));
    }
    // The header is a claim, not a fact: reserve what it asks for only up to
    // a fixed cap and let the vectors grow with the entries actually read.
    let stored = if symmetric {
        nnz.checked_mul(2).ok_or_else(|| {
            parse_err(format!(
                "size line: entry count {nnz} overflows when expanded symmetrically"
            ))
        })?
    } else {
        nnz
    };
    let mut coo = Coo::new(nrows, ncols);
    coo.reserve(stored.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("short entry line"))?
            .parse()
            .map_err(|_| parse_err("bad row index"))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("short entry line"))?
            .parse()
            .map_err(|_| parse_err("bad col index"))?;
        let v: f64 = if value_type == "pattern" {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err("bad value"))?
        };
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(parse_err(format!("entry ({i},{j}) out of range")));
        }
        coo.push(i - 1, j - 1, v);
        if symmetric && i != j {
            coo.push(j - 1, i - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    coo.try_to_csr().map_err(|e| {
        parse_err(format!(
            "size line: cannot hold a matrix of {nrows} rows ({e})"
        ))
    })
}

/// Read a Matrix Market file from a path.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Csr, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a matrix in `matrix coordinate real general` form.
pub fn write_matrix_market<W: Write>(mut w: W, a: &Csr) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by salu (3D sparse LU reproduction)")?;
    writeln!(w, "{} {} {}", a.nrows, a.ncols, a.nnz())?;
    for i in 0..a.nrows {
        for (c, v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            writeln!(w, "{} {} {:.17e}", i + 1, c + 1, v)?;
        }
    }
    Ok(())
}

/// Write a matrix to a path.
pub fn write_matrix_market_file(path: impl AsRef<Path>, a: &Csr) -> std::io::Result<()> {
    write_matrix_market(std::fs::File::create(path)?, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matgen::grid2d_5pt;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn parse_error(text: &str) -> String {
        match read_matrix_market(text.as_bytes()) {
            Err(MmError::Parse(msg)) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn huge_entry_count_is_an_error_not_an_allocation() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1000000000000000000\n\
                    1 1 1.0\n";
        let msg = parse_error(text);
        assert!(msg.contains("1000000000000000000 entries"), "{msg}");
    }

    #[test]
    fn huge_dimensions_are_an_error_not_an_allocation() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    1000000000000 1000000000000 0\n";
        let msg = parse_error(text);
        assert!(
            msg.contains("size line") && msg.contains("1000000000000 rows"),
            "{msg}"
        );
    }

    #[test]
    fn symmetric_entry_count_overflow_is_an_error() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 9223372036854775808\n\
                    1 1 1.0\n";
        let msg = parse_error(text);
        assert!(
            msg.contains("size line") && msg.contains("entry count"),
            "{msg}"
        );
    }

    #[test]
    fn symmetric_rectangular_is_an_error() {
        // Mirroring (1,3) of a 2 x 3 matrix would land outside it.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 3 1\n\
                    1 3 1.0\n";
        let msg = parse_error(text);
        assert!(msg.contains("square"), "{msg}");
    }

    /// A well-formed file: random shape, kind and symmetry, a comment, and
    /// sometimes a repeated entry.
    fn valid_file(rng: &mut StdRng) -> String {
        let symmetric = rng.gen_bool(0.3);
        let nrows = rng.gen_range(1usize..7);
        let ncols = if symmetric {
            nrows
        } else {
            rng.gen_range(1usize..7)
        };
        let kind = ["real", "integer", "pattern"][rng.gen_range(0usize..3)];
        let mut entries = Vec::new();
        for _ in 0..rng.gen_range(0usize..12) {
            let i = rng.gen_range(1..nrows + 1);
            let j = if symmetric {
                rng.gen_range(1..i + 1)
            } else {
                rng.gen_range(1..ncols + 1)
            };
            let line = match kind {
                "real" => format!("{i} {j} {:e}", rng.gen_range(-9.0f64..9.0)),
                "integer" => format!("{i} {j} {}", rng.gen_range(-9i64..9)),
                _ => format!("{i} {j}"),
            };
            if rng.gen_bool(0.1) {
                entries.push(line.clone());
            }
            entries.push(line);
        }
        let symmetry = if symmetric { "symmetric" } else { "general" };
        let mut text = format!("%%MatrixMarket matrix coordinate {kind} {symmetry}\n% comment\n");
        text += &format!("{nrows} {ncols} {}\n", entries.len());
        for e in entries {
            text += &e;
            text.push('\n');
        }
        text
    }

    /// Tokens no honest writer emits. The integers are tiny or near the
    /// top of their range on purpose: a merely large dimension is a valid
    /// request for that much memory, not something a test should make.
    const HOSTILE_TOKENS: [&str; 16] = [
        "-1",
        "0",
        "+2",
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "9223372036854775808",
        "99999999999999999999999999",
        "nan",
        "NaN",
        "inf",
        "-infinity",
        "0x1.8p3",
        "1e400",
        "1.5.2",
        "%",
    ];

    /// One hostile edit of `text`, as bytes (the result need not be UTF-8).
    fn mutate(rng: &mut StdRng, text: &str) -> Vec<u8> {
        if text.is_empty() {
            return Vec::new();
        }
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split(' ').map(str::to_string).collect())
            .collect();
        let li = rng.gen_range(0..lines.len());
        let fi = rng.gen_range(0..lines[li].len());
        let join = |lines: &[Vec<String>], eol: &str| -> Vec<u8> {
            let mut out = String::new();
            for l in lines {
                out += &l.join(" ");
                out += eol;
            }
            out.into_bytes()
        };
        match rng.gen_range(0usize..8) {
            0 => {
                let mut bytes = text.as_bytes().to_vec();
                bytes.truncate(rng.gen_range(0..bytes.len()));
                bytes
            }
            1 => {
                let fj = rng.gen_range(0..lines[li].len());
                lines[li].swap(fi, fj);
                join(&lines, "\n")
            }
            2 => {
                lines[li].remove(fi);
                join(&lines, "\n")
            }
            3 => {
                let mut bytes = text.as_bytes().to_vec();
                let at = rng.gen_range(0..bytes.len());
                bytes.splice(at..at, [0xff, 0xfe, 0x80]);
                bytes
            }
            4 | 5 => {
                let token = HOSTILE_TOKENS[rng.gen_range(0..HOSTILE_TOKENS.len())];
                lines[li][fi] = token.to_string();
                join(&lines, "\n")
            }
            6 => join(&lines, "\r\n"),
            _ => {
                let dup = lines[li].clone();
                lines.push(dup);
                join(&lines, "\n")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Whatever is in the file, the reader answers `Ok` or `MmError`:
        /// no panic, no abort, no wrapped arithmetic.
        #[test]
        fn reader_returns_ok_or_error_never_panics(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = valid_file(&mut rng);
            prop_assert!(read_matrix_market(text.as_bytes()).is_ok(), "valid file rejected:\n{text}");
            let mut bytes = mutate(&mut rng, &text);
            if rng.gen_bool(0.3) {
                let again = String::from_utf8_lossy(&bytes).into_owned();
                bytes = mutate(&mut rng, &again);
            }
            match read_matrix_market(&bytes[..]) {
                Ok(a) => prop_assert!(a.row_ptr.len() == a.nrows + 1),
                Err(MmError::Parse(_) | MmError::Io(_)) => {}
            }
        }
    }

    #[test]
    fn roundtrip_general() {
        let a = grid2d_5pt(5, 4, 0.2, 3);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    2 2 2.0\n\
                    3 3 2.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn reads_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("%%NotMM\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }
}
