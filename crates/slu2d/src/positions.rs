//! Per-position work lists: what the rank at each position of a 2D grid
//! runs of a list that names every rank's work, derived once per machine so
//! that no rank walks the whole list to find its own entries.

use simgrid::Grid2d;

/// One list per position `(r, c)` of a `pr x pc` grid, stored back to back.
#[derive(Clone, Debug)]
pub struct ByPosition<T> {
    pc: usize,
    /// Position `(r, c)`'s list is `items[ptr[r * pc + c]..ptr[r * pc + c + 1]]`.
    ptr: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> ByPosition<T> {
    /// Deal `items` to their positions, each position's list keeping the
    /// order in which they come.
    pub fn deal(grid: Grid2d, items: impl IntoIterator<Item = ((usize, usize), T)>) -> Self {
        let tagged: Vec<(usize, T)> = items
            .into_iter()
            .map(|((r, c), item)| (grid.rank_of(r, c), item))
            .collect();
        assert!(
            tagged.len() < u32::MAX as usize,
            "per-position lists index their items with u32"
        );
        let mut ptr = vec![0u32; grid.size() + 1];
        for &(p, _) in &tagged {
            ptr[p + 1] += 1;
        }
        for p in 0..grid.size() {
            ptr[p + 1] += ptr[p];
        }
        // A stable counting sort: where each tagged item goes, then the
        // items in that order.
        let mut next = ptr.clone();
        let mut from = vec![0u32; tagged.len()];
        for (e, &(p, _)) in tagged.iter().enumerate() {
            from[next[p] as usize] = e as u32;
            next[p] += 1;
        }
        ByPosition {
            pc: grid.pc,
            ptr,
            items: from.into_iter().map(|e| tagged[e as usize].1).collect(),
        }
    }
}

impl<T> ByPosition<T> {
    /// Position `(r, c)`'s list, in the order it was handed out.
    pub fn at(&self, (r, c): (usize, usize)) -> &[T] {
        let p = r * self.pc + c;
        &self.items[self.ptr[p] as usize..self.ptr[p + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deals_each_item_to_its_position_in_order() {
        let grid = Grid2d::new(2, 3);
        let at = |v: u32| ((v % 2) as usize, (v * v % 3) as usize);
        let lists = ByPosition::deal(grid, (0..20u32).map(|v| (at(v), v)));
        for r in 0..2 {
            for c in 0..3 {
                let want: Vec<u32> = (0..20u32).filter(|&v| at(v) == (r, c)).collect();
                assert_eq!(lists.at((r, c)), &want[..], "({r},{c})");
            }
        }
    }
}
