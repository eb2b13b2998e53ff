//! Message payloads and their word accounting.

use std::sync::{Arc, OnceLock};

/// Data carried by one simulated message.
///
/// The word count (8-byte units, matching the paper's "number of words
/// sent") is what the traffic counters and the β term of the time model
/// charge for.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// No data: synchronization-only messages (barriers).
    Empty,
    /// Numeric data (reduction operands, solve segments). Owned: receivers
    /// consume and mutate it.
    F64s(Vec<f64>),
    /// Index data (block ids, structural metadata).
    Idx(Vec<usize>),
    /// A structural header plus numeric body, sent as one message — the
    /// shape of a packed supernodal panel (block ids + block values).
    /// Shared and immutable: cloning it, as a broadcast does once per
    /// child, bumps a reference count, and every receiver reads the
    /// sender's buffer in place.
    Packed(Arc<Packed>),
}

/// The body of a [`Payload::Packed`] message: a header `meta` and the values
/// `data`, frozen when built. Panels use the header layout `[count, (id,
/// rows, cols)*]` over column-major blocks stored back to back
/// ([`Packed::blocks`]); a packed buffer with no header is one bare block
/// whose shape the receiver knows (the diagonal broadcast).
#[derive(Debug)]
pub struct Packed {
    meta: Vec<usize>,
    data: Vec<f64>,
    /// [`Packed::struct_words`], counted on first use and then read by every
    /// send of the buffer.
    struct_words: OnceLock<u64>,
}

/// One block of a packed panel: its id, and where its `rows x cols`
/// column-major values start in [`Packed::data`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedBlock {
    pub id: usize,
    pub offset: usize,
    pub rows: usize,
    pub cols: usize,
}

impl PartialEq for Packed {
    fn eq(&self, other: &Packed) -> bool {
        self.meta == other.meta && self.data == other.data
    }
}

impl Packed {
    /// Freeze a header and its values into one shareable buffer.
    pub fn new(meta: Vec<usize>, data: Vec<f64>) -> Packed {
        Packed {
            meta,
            data,
            struct_words: OnceLock::new(),
        }
    }

    /// The header.
    pub fn meta(&self) -> &[usize] {
        &self.meta
    }

    /// The values.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Words on the wire: header plus values.
    pub fn words(&self) -> u64 {
        (self.meta.len() + self.data.len()) as u64
    }

    /// The blocks a `[count, (id, rows, cols)*]` header lays out, in order,
    /// or `None` when the header does not follow that layout or a block
    /// runs past the values. Values after the last block are not checked
    /// here; a receiver that needs an exact fit compares the total.
    pub fn blocks(&self) -> Option<Vec<PackedBlock>> {
        let (&count, rest) = self.meta.split_first()?;
        if rest.len() != count.checked_mul(3)? {
            return None;
        }
        let mut offset = 0usize;
        let mut out = Vec::with_capacity(count);
        for b in rest.chunks_exact(3) {
            let (rows, cols) = (b[1], b[2]);
            let end = offset.checked_add(rows.checked_mul(cols)?)?;
            if end > self.data.len() {
                return None;
            }
            out.push(PackedBlock {
                id: b[0],
                offset,
                rows,
                cols,
            });
            offset = end;
        }
        Some(out)
    }

    /// Words carrying structural content, for the wire ledger's
    /// padding-waste audit; see [`Payload::struct_words`]. Counted once per
    /// buffer, however many sends carry it.
    pub fn struct_words(&self) -> u64 {
        *self.struct_words.get_or_init(|| self.count_struct_words())
    }

    fn count_struct_words(&self) -> u64 {
        if self.meta.is_empty() {
            return nonzeros(&self.data);
        }
        let Some(blocks) = self.blocks() else {
            return self.words();
        };
        // One column-major pass per block, marking the rows that hold a
        // nonzero; a block stops once every row is marked.
        let mut nz_row = Vec::new();
        let mut sw = self.meta.len() as u64;
        for b in blocks {
            nz_row.clear();
            nz_row.resize(b.rows, false);
            let mut nz_rows = 0usize;
            let blk = &self.data[b.offset..b.offset + b.rows * b.cols];
            for col in blk.chunks_exact(b.rows.max(1)) {
                for (seen, &v) in nz_row.iter_mut().zip(col) {
                    if v != 0.0 && !*seen {
                        *seen = true;
                        nz_rows += 1;
                    }
                }
                if nz_rows == b.rows {
                    break;
                }
            }
            sw += (nz_rows * b.cols) as u64;
        }
        sw
    }
}

/// Nonzero entries of `v`.
fn nonzeros(v: &[f64]) -> u64 {
    v.iter().filter(|x| **x != 0.0).count() as u64
}

/// The variant of a [`Payload`], for structured kind-mismatch reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    Empty,
    F64s,
    Idx,
    Packed,
}

/// A typed unwrap found the wrong payload variant — a protocol error in
/// SPMD code. Carried up to the rank-failure machinery, which attaches the
/// message provenance (src/ctx/tag/phase); see `Rank::recv_f64s` and
/// friends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindMismatch {
    pub expected: PayloadKind,
    pub got: PayloadKind,
}

impl std::fmt::Display for KindMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expected {:?} payload, got {:?}",
            self.expected, self.got
        )
    }
}

impl Payload {
    /// Freeze a header and its values into a shared [`Payload::Packed`].
    pub fn packed(meta: Vec<usize>, data: Vec<f64>) -> Payload {
        Payload::Packed(Arc::new(Packed::new(meta, data)))
    }

    /// Number of 8-byte words this payload occupies on the wire.
    pub fn words(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F64s(v) => v.len() as u64,
            Payload::Idx(v) => v.len() as u64,
            Payload::Packed(p) => p.words(),
        }
    }

    /// Number of 8-byte words carrying structural content, for the wire
    /// ledger's padding-waste audit. `Empty` and `Idx` payloads are all
    /// structure; an `F64s` payload counts its nonzero entries; a `Packed`
    /// panel counts its meta header plus, per block, `nonzero_rows × cols`
    /// — rows that are entirely zero are padding shipped only because the
    /// block was padded to a dense supernodal tile. Always `<= words()`.
    /// A `Packed` payload whose meta does not follow the `[count, (id, rows,
    /// cols)*]` layout is counted as all structure; one with no meta at all
    /// counts its nonzero entries, like `F64s`.
    pub fn struct_words(&self) -> u64 {
        match self {
            Payload::Empty => 0,
            Payload::F64s(v) => nonzeros(v),
            Payload::Idx(v) => v.len() as u64,
            Payload::Packed(p) => p.struct_words(),
        }
    }

    /// Which variant this payload is.
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Empty => PayloadKind::Empty,
            Payload::F64s(_) => PayloadKind::F64s,
            Payload::Idx(_) => PayloadKind::Idx,
            Payload::Packed(_) => PayloadKind::Packed,
        }
    }

    /// Unwrap an `F64s` payload, reporting the actual kind on mismatch.
    pub fn try_into_f64s(self) -> Result<Vec<f64>, KindMismatch> {
        match self {
            Payload::F64s(v) => Ok(v),
            other => Err(KindMismatch {
                expected: PayloadKind::F64s,
                got: other.kind(),
            }),
        }
    }

    /// Unwrap an `Idx` payload, reporting the actual kind on mismatch.
    pub fn try_into_idx(self) -> Result<Vec<usize>, KindMismatch> {
        match self {
            Payload::Idx(v) => Ok(v),
            other => Err(KindMismatch {
                expected: PayloadKind::Idx,
                got: other.kind(),
            }),
        }
    }

    /// Unwrap a `Packed` payload, reporting the actual kind on mismatch.
    pub fn try_into_packed(self) -> Result<Arc<Packed>, KindMismatch> {
        match self {
            Payload::Packed(p) => Ok(p),
            other => Err(KindMismatch {
                expected: PayloadKind::Packed,
                got: other.kind(),
            }),
        }
    }

    /// Unwrap an `F64s` payload; panics on other variants. Prefer the
    /// provenance-carrying `Rank::recv_f64s` at receive sites.
    pub fn into_f64s(self) -> Vec<f64> {
        self.try_into_f64s().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Unwrap an `Idx` payload; panics on other variants.
    pub fn into_idx(self) -> Vec<usize> {
        self.try_into_idx().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_counts() {
        assert_eq!(Payload::Empty.words(), 0);
        assert_eq!(Payload::F64s(vec![0.0; 5]).words(), 5);
        assert_eq!(Payload::Idx(vec![0; 3]).words(), 3);
        assert_eq!(Payload::packed(vec![1, 2], vec![0.0; 10]).words(), 12);
    }

    #[test]
    fn struct_words_counts_nonzero_rows() {
        assert_eq!(Payload::Empty.struct_words(), 0);
        assert_eq!(Payload::Idx(vec![0; 3]).struct_words(), 3);
        assert_eq!(Payload::F64s(vec![1.0, 0.0, 2.0, 0.0]).struct_words(), 2);
        // One 3x2 block (column-major) whose middle row is all zero:
        // only 2 of 3 rows carry structure -> 4 data words + 4 meta words.
        let p = Payload::packed(vec![1, 7, 3, 2], vec![1.0, 0.0, 3.0, 4.0, 0.0, 6.0]);
        assert_eq!(p.words(), 10);
        assert_eq!(p.struct_words(), 8);
        // Malformed meta falls back to all-structure.
        let bad = Payload::packed(vec![2, 7, 3, 2], vec![0.0; 6]);
        assert_eq!(bad.struct_words(), bad.words());
        // No header: a bare block, counted like `F64s`.
        let bare = Payload::packed(Vec::new(), vec![1.0, 0.0, 2.0, 0.0]);
        assert_eq!((bare.words(), bare.struct_words()), (4, 2));
    }

    #[test]
    fn blocks_follow_the_header_or_are_none() {
        let p = Packed::new(vec![2, 7, 3, 2, 9, 0, 4], vec![0.0; 6]);
        let at = |id, offset, rows, cols| PackedBlock {
            id,
            offset,
            rows,
            cols,
        };
        assert_eq!(p.blocks(), Some(vec![at(7, 0, 3, 2), at(9, 6, 0, 4)]));
        for meta in [
            vec![],
            vec![1, 7, 3],
            vec![1, 7, 3, 3],
            vec![1, 7, usize::MAX, 2],
        ] {
            assert_eq!(
                Packed::new(meta.clone(), vec![0.0; 6]).blocks(),
                None,
                "{meta:?}"
            );
        }
    }

    #[test]
    fn a_cloned_packed_payload_shares_its_buffer() {
        let p = Payload::packed(vec![1, 7, 3, 2], vec![1.0; 6]);
        let (Payload::Packed(a), Payload::Packed(b)) = (&p, &p.clone()) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(Arc::strong_count(a), 2);
    }

    /// The definition the wire ledger has always used: per block, scan each
    /// row across its columns (row-strided) for a nonzero.
    fn row_strided_struct_words(meta: &[usize], data: &[f64]) -> u64 {
        let words = (meta.len() + data.len()) as u64;
        let Some((&count, rest)) = meta.split_first() else {
            return words;
        };
        if rest.len() != 3 * count {
            return words;
        }
        let mut off = 0usize;
        let mut sw = meta.len() as u64;
        for b in 0..count {
            let (rows, cols) = (rest[3 * b + 1], rest[3 * b + 2]);
            let len = rows * cols;
            if off + len > data.len() {
                return words;
            }
            let blk = &data[off..off + len];
            let nz_rows = (0..rows)
                .filter(|&i| (0..cols).any(|j| blk[j * rows + i] != 0.0))
                .count();
            sw += (nz_rows * cols) as u64;
            off += len;
        }
        sw
    }

    /// The column-major count equals the row-strided one on random panels:
    /// zero rows, zero columns, empty blocks, all-zero rows, short and long
    /// bodies, and headers that miscount their blocks.
    #[test]
    fn struct_words_matches_the_row_strided_definition() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n) as usize
        };
        for case in 0..2000 {
            let count = draw(6);
            let mut meta = vec![count];
            let mut data = Vec::new();
            for id in 0..count {
                let (rows, cols, density) = (draw(6), draw(5), draw(5));
                meta.extend([id, rows, cols]);
                // Row 0 of every block stays zero; the rest is `density`
                // quarters nonzero.
                for at in 0..rows * cols {
                    let nonzero = at % rows.max(1) != 0 && draw(4) < density;
                    data.push(if nonzero {
                        draw(100) as f64 - 50.0
                    } else {
                        0.0
                    });
                }
            }
            match draw(5) {
                0 => data.truncate(data.len().saturating_sub(1)),
                1 => data.push(1.0),
                2 => meta[0] += 1,
                _ => {}
            }
            let want = row_strided_struct_words(&meta, &data);
            let packed = Packed::new(meta, data);
            assert_eq!(packed.struct_words(), want, "case {case}");
            assert!(packed.struct_words() <= packed.words(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "expected F64s")]
    fn wrong_unwrap_panics() {
        Payload::Empty.into_f64s();
    }

    #[test]
    fn try_unwrap_reports_both_kinds() {
        let e = Payload::Idx(vec![1]).try_into_f64s().unwrap_err();
        assert_eq!(e.expected, PayloadKind::F64s);
        assert_eq!(e.got, PayloadKind::Idx);
        assert_eq!(e.to_string(), "expected F64s payload, got Idx");
        assert_eq!(Payload::F64s(vec![2.0]).try_into_f64s().unwrap(), vec![2.0]);
        assert!(Payload::Empty.try_into_idx().is_err());
        assert!(Payload::Empty.try_into_packed().is_err());
    }
}
