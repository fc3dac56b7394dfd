//! Read-set snapshots of folded known memory.
//!
//! When the tracer folds a load from declared-known memory (a `KNOWN`
//! range or a `PTR_TO_KNOWN` extent) into a constant, the specialized
//! code silently depends on those bytes never changing. The paper's
//! contract makes the *user* responsible for that immutability — but a
//! production service needs to notice when the contract is broken rather
//! than keep serving stale constants. This module records exactly which
//! bytes a rewrite folded ([`ReadSet`]) and condenses them into a compact,
//! re-checkable fingerprint ([`KnownSnapshot`]) that travels with every
//! [`crate::manager::Variant`]:
//!
//! - `Invalidation::Data(range)` drops variants whose snapshot *overlaps*
//!   a mutated range, without touching the image;
//! - `Invalidation::Revalidate(img)` re-hashes each snapshot against the
//!   current image and drops only the variants whose folded bytes
//!   actually changed.

use brew_image::Image;
use std::ops::Range;

/// FNV-1a offset basis / prime (the same parameters request
/// fingerprinting uses).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Accumulates the `(addr, size)` loads the tracer folded from known
/// memory during one rewrite. Cheap to record into (one `Vec` push per
/// folded load); condensed once at the end of the rewrite.
#[derive(Debug, Default, Clone)]
pub struct ReadSet {
    reads: Vec<(u64, u64)>,
}

impl ReadSet {
    /// Record one folded load of `size` bytes at `addr`.
    pub fn record(&mut self, addr: u64, size: u64) {
        if size > 0 {
            self.reads.push((addr, size));
        }
    }

    /// Whether any known-memory load was folded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Coalesce the recorded reads into sorted, disjoint ranges and hash
    /// the bytes they currently hold in `img`.
    pub fn snapshot(&self, img: &Image) -> KnownSnapshot {
        let mut spans: Vec<Range<u64>> = self
            .reads
            .iter()
            .map(|&(a, s)| a..a.saturating_add(s))
            .collect();
        spans.sort_by_key(|r| (r.start, r.end));
        let mut ranges: Vec<Range<u64>> = Vec::new();
        for r in spans {
            match ranges.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => ranges.push(r),
            }
        }
        let hash = hash_ranges(&ranges, img);
        KnownSnapshot { ranges, hash }
    }
}

/// FNV-1a over every range's position, extent and current image bytes.
/// An unreadable byte hashes as a sentinel, so a snapshot taken over
/// since-unmapped memory can never accidentally match.
fn hash_ranges(ranges: &[Range<u64>], img: &Image) -> u64 {
    let mut h = FNV_OFFSET;
    let mut byte = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for r in ranges {
        for b in r.start.to_le_bytes() {
            byte(b);
        }
        for b in (r.end - r.start).to_le_bytes() {
            byte(b);
        }
        let mut buf = [0u8; 64];
        let mut a = r.start;
        while a < r.end {
            let n = ((r.end - a) as usize).min(buf.len());
            match img.read_bytes(a, &mut buf[..n]) {
                Ok(()) => buf[..n].iter().for_each(|&b| byte(b)),
                Err(_) => byte(0xA5),
            }
            a += n as u64;
        }
    }
    h
}

/// The condensed read-set of one rewrite: the coalesced known-memory
/// ranges it folded, plus an FNV-1a hash of the bytes they held at
/// rewrite time. Empty when the rewrite folded no known memory — such a
/// variant can never go stale.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KnownSnapshot {
    ranges: Vec<Range<u64>>,
    hash: u64,
}

impl KnownSnapshot {
    /// Reassemble a snapshot from serialized parts (the persistence
    /// decoder). The recorded `hash` is *claimed*, not recomputed: load
    /// validation calls [`Self::matches`] against the live image, which
    /// is exactly the stale-snapshot check — a forged or bit-rotted hash
    /// fails it.
    pub(crate) fn from_parts(ranges: Vec<Range<u64>>, hash: u64) -> Self {
        KnownSnapshot { ranges, hash }
    }

    /// The coalesced, sorted ranges of folded known memory.
    pub fn ranges(&self) -> &[Range<u64>] {
        &self.ranges
    }

    /// Hash of the folded bytes at rewrite time.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Whether the rewrite folded no known memory at all.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total folded bytes across all ranges.
    pub fn byte_len(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// Does any folded range intersect `r`?
    pub fn overlaps(&self, r: &Range<u64>) -> bool {
        self.ranges
            .iter()
            .any(|s| s.start < r.end && r.start < s.end)
    }

    /// Do the bytes in `img` still hash to what this snapshot recorded?
    /// Empty snapshots always match.
    pub fn matches(&self, img: &Image) -> bool {
        self.is_empty() || hash_ranges(&self.ranges, img) == self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_adjacent_and_overlapping_reads() {
        let img = Image::new();
        let base = img.alloc_data(64, 8);
        let mut rs = ReadSet::default();
        rs.record(base + 8, 8);
        rs.record(base, 8); // adjacent below
        rs.record(base + 4, 8); // overlapping
        rs.record(base + 32, 8); // disjoint
        let snap = rs.snapshot(&img);
        assert_eq!(snap.ranges(), &[base..base + 16, base + 32..base + 40]);
        assert_eq!(snap.byte_len(), 24);
    }

    #[test]
    fn overlap_is_strict_intersection() {
        let img = Image::new();
        let base = img.alloc_data(32, 8);
        let mut rs = ReadSet::default();
        rs.record(base + 8, 8);
        let snap = rs.snapshot(&img);
        assert!(snap.overlaps(&(base + 8..base + 9)));
        assert!(snap.overlaps(&(base..base + 9)));
        assert!(!snap.overlaps(&(base..base + 8)), "touching is not overlap");
        assert!(!snap.overlaps(&(base + 16..base + 24)));
    }

    #[test]
    fn mutation_breaks_the_match() {
        let img = Image::new();
        let base = img.alloc_data(16, 8);
        img.write_u64(base, 7).unwrap();
        let mut rs = ReadSet::default();
        rs.record(base, 8);
        let snap = rs.snapshot(&img);
        assert!(snap.matches(&img));
        img.write_u64(base, 8).unwrap();
        assert!(!snap.matches(&img));
        img.write_u64(base, 7).unwrap();
        assert!(snap.matches(&img), "restoring the bytes restores the match");
        // Bytes outside the read-set do not matter.
        img.write_u64(base + 8, 1234).unwrap();
        assert!(snap.matches(&img));
    }

    #[test]
    fn empty_snapshot_never_goes_stale() {
        let img = Image::new();
        let snap = ReadSet::default().snapshot(&img);
        assert!(snap.is_empty());
        assert!(snap.matches(&img));
        assert!(!snap.overlaps(&(0..u64::MAX)));
    }
}
