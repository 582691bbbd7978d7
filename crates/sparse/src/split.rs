//! Work splitting for data-parallel passes over a compressed matrix.
//!
//! A pass that produces one output per major slot (a row of a CSR matrix,
//! a column of a CSC matrix) costs about one unit per slot plus one per
//! stored entry. Equal-count ranges of slots can be far from equal work:
//! on power-law data half the entries sit in a few hundred head columns.
//! [`balanced_ranges`] cuts by that cost instead.

use std::ops::Range;

/// Cut the major slots `0..offsets.len() - 1` of a compressed matrix into
/// at most `parts` consecutive, non-empty ranges of about equal cost, where
/// slot `i` costs its entry count `offsets[i + 1] - offsets[i]` plus one.
///
/// The ranges cover every slot in increasing order; an empty matrix yields
/// no ranges. `parts = 0` is treated as 1.
pub fn balanced_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let major = offsets.len().saturating_sub(1);
    // cost(i) = offsets[i] + i is the work of slots 0..i, strictly
    // increasing in i, so each cut is a binary search for a cost target.
    let cost = |i: usize| offsets[i] + i;
    let total = cost(major);
    let parts = parts.max(1);
    let mut ranges = Vec::with_capacity(parts.min(major));
    let mut start = 0;
    for p in 1..=parts {
        let target = total * p / parts;
        let (mut lo, mut hi) = (start, major);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cost(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo > start {
            ranges.push(start..lo);
            start = lo;
        }
    }
    debug_assert_eq!(start, major);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(ranges: &[Range<usize>], major: usize) -> bool {
        let mut next = 0;
        for r in ranges {
            if r.start != next || r.is_empty() {
                return false;
            }
            next = r.end;
        }
        next == major
    }

    #[test]
    fn uniform_rows_split_evenly() {
        let offsets: Vec<usize> = (0..=8).map(|i| i * 3).collect();
        assert_eq!(balanced_ranges(&offsets, 2), vec![0..4, 4..8]);
        assert_eq!(balanced_ranges(&offsets, 4), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(balanced_ranges(&offsets, 1), vec![0..8]);
        assert_eq!(balanced_ranges(&offsets, 0), vec![0..8]);
    }

    #[test]
    fn a_heavy_head_gets_its_own_range() {
        // Slot 0 holds 100 entries, the other 9 slots one each.
        let mut offsets = vec![0, 100];
        for i in 0..9 {
            offsets.push(101 + i);
        }
        let ranges = balanced_ranges(&offsets, 2);
        assert_eq!(ranges, vec![0..1, 1..10]);
    }

    #[test]
    fn more_parts_than_slots_and_empty_matrices() {
        let offsets = vec![0, 2, 2, 5];
        let ranges = balanced_ranges(&offsets, 16);
        assert!(covers(&ranges, 3));
        assert!(ranges.len() <= 3);
        assert!(balanced_ranges(&[0], 4).is_empty());
        // Empty slots still cost one unit each, so they are split too.
        let empty = vec![0; 7];
        assert_eq!(balanced_ranges(&empty, 2), vec![0..3, 3..6]);
    }
}
